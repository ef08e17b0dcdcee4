"""Mixed finite elements for coupled solid/fluid vibration eigenproblems.

The package computes natural frequencies of a fluid contained in an
elastic vessel: a displacement/pressure (Herrmann) formulation for the
solid coupled to an H(div) displacement formulation for the fluid, with
a residual a posteriori estimator driving adaptive mesh refinement.
"""

__version__ = "0.1.0"

from .meshing import (Mesh, GeometrySpec, build_cavity_mesh, bisect,
                      validate, omega1, omega2, unit_square_solid,
                      unit_square_fluid, read_mesh, write_mesh, read_gmsh,
                      SOLID, FLUID, GAMMA_D, GAMMA_N, GAMMA_0, INTERFACE,
                      INTERIOR)
from .elements import (ElementKind, QuadratureRule, DofMap, quadrature,
                       reference_basis, build_dofmap, bdm_interpolate,
                       P1, P2, P1B, DG0, DG1, BDM1, VP1, VP2)
from .assembly import (MaterialField, BlockSystem, Spaces, lame_from,
                       build_spaces, assemble_stiffness, assemble_mass,
                       assemble_interface, build_block_system)
from .eigensolve import (EigenPair, SpectrumReport, solve_pencil,
                         filter_modes, dense_oracle)
from .estimator import (IndicatorSet, Weights, solid_indicators,
                        fluid_indicators, interface_indicators,
                        global_estimate, estimate_mode)
from .adaptivity import (AdaptiveHistory, mark, effectivity,
                         adaptive_solve)
from .study import (ConvergenceTable, run_uniform_study, fit_rate,
                    extrapolate, solve_window)
from .config import RunConfig, load_config, parse_config
from .vtkio import export_fields
