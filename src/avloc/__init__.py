"""Audio-visual event localization with dual LSTM encoders, residual
cross-modal fusion, and a conditioned decoder, trained either from
per-segment labels or from video-level labels only."""

from .checkpoint import load_model, save_model
from .data import (DatasetManifest, FeatureSequence, SynthConfig,
                   frame_accuracy, generate_synthetic, read_features,
                   read_manifest, write_features, write_manifest)
from .gradcheck import run_gradcheck
from .model import (DecoderInit, ModelParams, forward, init_model_params,
                    predict_segments, video_label_from_segments)
from .ops import Precision
from .trainer import EvalReport, TrainConfig, TrainResult, evaluate, train

__all__ = [
    "DatasetManifest", "DecoderInit", "EvalReport", "FeatureSequence",
    "ModelParams", "Precision", "SynthConfig", "TrainConfig", "TrainResult",
    "evaluate", "forward", "frame_accuracy", "generate_synthetic",
    "init_model_params", "load_model", "predict_segments", "read_features",
    "read_manifest", "run_gradcheck", "save_model", "train",
    "video_label_from_segments", "write_features", "write_manifest",
]
