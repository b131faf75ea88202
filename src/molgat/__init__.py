"""Gated, distance-aware graph attention networks for protein-ligand
activity and binding-pose classification, with an in-repo reverse-mode
differentiation engine, preprocessing pipeline, trainer, and
virtual-screening metrics."""

__version__ = "0.1.0"

from .autodiff import Tape, Value, constant, parameter
from .chem import Atom, Bond, ComplexRecord, featurize, parse_complex
from .gat import GatParams, gat_forward
from .graphs import GraphSample, build_sample, compute_rmsd, label_pose, prune_protein
from .model import ModelConfig, ModelParams, load_params, materialize_a2, predict, save_params, score
from .training import TrainConfig, balanced_batches, train

__all__ = [
    "Tape",
    "Value",
    "constant",
    "parameter",
    "Atom",
    "Bond",
    "ComplexRecord",
    "featurize",
    "parse_complex",
    "GatParams",
    "gat_forward",
    "GraphSample",
    "build_sample",
    "compute_rmsd",
    "label_pose",
    "prune_protein",
    "ModelConfig",
    "ModelParams",
    "load_params",
    "materialize_a2",
    "predict",
    "save_params",
    "score",
    "TrainConfig",
    "balanced_batches",
    "train",
]
