"""Scalable online (multi-)kernel learning of node signals over graphs.

Nodes are represented by their connectivity patterns, encoded through frozen
random-feature maps of shift-invariant kernels; constant-step online gradient
descent trains one learner per kernel and hedge weights combine them.  Batch
kernel-ridge and k-NN baselines plus a benchmark harness round out the
package.
"""

from ._kernels import LossKind
from .graph import (
    Graph,
    SamplingPlan,
    erdos_renyi,
    load_edge_list,
    load_labels,
    node_patterns,
    normalized_laplacian,
    sample_nodes,
    synth_signal,
)
from .kernels import (
    GraphKernelSpec,
    KernelSpec,
    eval_kernel,
    eval_kernel_matrix,
    graph_kernel_matrix,
    spectral_sample,
)
from .features import (
    RFMap,
    approx_kernel,
    build_map,
    load_map,
    null_space_collision,
    save_map,
)
from .mkl import (
    MklModel,
    MklTraces,
    load_mkl_checkpoint,
    mkl_encode,
    mkl_from_maps,
    mkl_init,
    mkl_predict,
    mkl_predict_batch,
    mkl_train,
    mkl_train_encoded,
    mkl_update,
    save_mkl_checkpoint,
)
from .baselines import (
    KnnInapplicableError,
    batch_kernel_ridge,
    batch_rf_ls,
    knn_predict,
)
from .config import ExperimentConfig, load_config
from .harness import (
    bench_newnode,
    conventional_nmse,
    nmse,
    run_dataset,
    run_regret,
    run_synthetic,
)
from .report import Report, write_report

__version__ = "0.1.0"

# Read only by perfbench/run.py's environment record; numpy is the only
# backend.  Goes once the benchmark drops that field (ROADMAP item 1).
NUMBA_ENABLED = False

__all__ = [name for name in dir() if not name.startswith("_")]
