"""moe-lens: inspection toolkit for mixture-of-experts checkpoints.

Generates synthetic MoE models with controllable expert relatedness, traces
every expert on every token with a minimal attention-free forward engine, and
measures expert similarity both in weight space and in behavior, with
deterministic CSV/heatmap reporting on top.
"""

from .config import ModelConfig

__version__ = "0.1.0"
