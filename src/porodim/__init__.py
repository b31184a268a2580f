"""porodim: dyadic tree measures with porous splits, porosity detection,
entropy-average packing-dimension estimation, and dimension-drop bounds."""

__version__ = "0.1.0"

from .bounds import (
    c_const,
    k_of_alpha,
    solve_s,
    solve_table,
    t_dalpha,
    t_dk,
)
from .dimension import (
    ConverseBound,
    DimensionEstimate,
    PathTrajectory,
    estimate_packing_dim,
    hmin_and_converse,
)
from .dyadic import (
    CubeAddress,
    CubePartition,
    porous_split,
    root,
    subdivide_uniform,
)
from .measure import (
    Bernoulli,
    CantorMiddleHalf,
    CascadeDirichlet,
    CascadeFiniteMixture,
    GeneratorSpec,
    Homothety,
    TreeMeasure,
    Uniform,
    apply_homothety,
    build_tree_measure,
    spec_from_json,
    spec_to_json,
)
from .oracle import ReducedPoint, fixed_point_candidate, maximize_bruteforce
from .porosity import (
    TranslationReport,
    classify_porous,
    por2_depth,
    porous_fraction_trajectory,
    porous_retree,
)
