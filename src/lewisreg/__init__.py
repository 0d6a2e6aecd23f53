"""Label-efficient least-absolute-deviation regression via Lewis-weight
row sampling: importance weights, sampling sketches, a certified LAD solver,
the active querying pipeline, instance generators, and an experiment harness.
"""

__version__ = "0.2.0"

from .linalg import (
    DataError,
    RankDeficiencyError,
    WeightVector,
    leverage_scores,
    spd_factorize,
)
from .lewis import (
    ConvergenceError,
    lewis_weights,
    recommended_budget,
    sampling_values,
    verify_fixed_point,
)
from .sketch import RngStream, Sketch, draw_sketch
from .lad import LadProblem, LadSolution, l1_norm, objective, solve_lad
from .active import (
    ActiveResult,
    FileBackedLabelOracle,
    InMemoryLabelOracle,
    LabelOracle,
    active_solve,
    augmented_lewis_weights,
    sample_and_solve,
    sketch_and_solve_known_y,
)
from .instances import (
    DistributionalInstance,
    PlantedInstance,
    biased_hypercube_instance,
    expected_loss,
    hidden_coordinate_instance,
    make_isolated_instance,
    make_outlier_instance,
    reduce_to_matrix,
    reduction_sample_count,
    sample_pairs,
    two_coin_instances,
)
from .experiment import ExperimentReport, ExperimentSpec, run_experiment, wilson_interval
