"""Batch Fermat-principle ray path solver with implicit differentiation."""

from .errors import (
    DegenerateBasis,
    DegenerateSegment,
    FermatPathError,
    NoConvergence,
    NoIntersection,
    NonUniformBatch,
    NotAllPlanes,
    NotStationary,
    SceneFileError,
    ShapeMismatch,
    SingularHessian,
    SingularSystem,
    ZeroDirection,
)
from .geometry import (
    PathSpec,
    Surface,
    SurfaceKind,
    make_edge,
    make_plane,
    params_from_points,
)
from .objective import (
    SceneGradient,
    embed,
    gradient,
    hessian,
    length_param_gradient,
    param_vjp,
    path_length,
)
from .solver import (
    Precision,
    SolveOptions,
    SolveReport,
    batch_solve,
    bfgs_solve,
    init_params,
    line_search_alpha,
)
from .baselines import (
    gradient_descent,
    image_method,
    newton_solve,
    reference_solve,
    reference_solve_batch,
)
from .implicit_diff import (
    grad_length_wrt_params,
    solve_stationary_system,
    vjp_solution,
)
from .bench import (
    BenchConfig,
    BenchRecord,
    GradCheckReport,
    Kinds,
    gen_scenes,
    grad_check,
    load_scenes,
    read_records,
    run_bench,
    save_scenes,
    write_records,
)

__version__ = "0.1.0"
