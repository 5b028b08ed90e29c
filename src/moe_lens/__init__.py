"""moe-lens: inspection toolkit for mixture-of-experts checkpoints.

Generates synthetic MoE models with controllable expert relatedness, runs a
minimal attention-free forward engine with two-stage all-expert tracing, and
measures expert similarity both in weight space and in behavior, with
deterministic CSV/heatmap reporting on top.
"""

from .config import ACTIVATIONS, GATING_ORDERS, ModelConfig
from .moe_core import (Expert, GateParams, LayerTrace, TokenTrace, activation_fn,
                       expert_forward, flatten_corpus, moe_layer_forward, read_corpus,
                       recombined_output, trace_all_experts)
from .static_analysis import (Projection, RegressionReport, ReorderReport,
                              SimilarityMatrix, aggregate_r2, cosine_sim,
                              dbscan_outliers, filter_outliers, gate_embedding_sim,
                              gate_expert_regression, kendall_tau, matrix_level_sim,
                              neuron_average_sim, pca_project, reorder_neurons,
                              solve_assignment)
from .dynamic_analysis import (ActivationRatioReport, RankCountMatrix, RoutingLog,
                               activation_ratio, angular_sim, avg_output_sim,
                               output_sim_per_token, rank_count_matrix, routing_pattern)
from .synth import (SynthSpec, synth_permuted_clone, synth_permuted_clone_model,
                    synth_scratch, synth_upcycled)
from .tensor_store import (Checkpoint, CheckpointError, TensorMeta, build_checkpoint,
                           dump_checkpoint, read_checkpoint, required_tensor_shapes,
                           write_checkpoint)

__version__ = "0.1.0"
