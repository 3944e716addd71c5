"""Statistical learning: normalization, retained-variance PCA, RBF-SVM."""

from .normalize import NormalizerStats, fit_normalizer
from .pca import PcaTransform, fit_pca
from .svm import SvmHyperParams, SvmModel, train_svm, decision_values, rbf_kernel
from .model_io import ModelBundle, save_model, load_model, save_model_json
from .search import GridSearchResult, GridPoint, DEFAULT_GRID, DEFAULT_SVM_PARAMS, grid_search

__all__ = [
    "NormalizerStats", "fit_normalizer",
    "PcaTransform", "fit_pca",
    "SvmHyperParams", "SvmModel", "train_svm", "decision_values", "rbf_kernel",
    "ModelBundle", "save_model", "load_model", "save_model_json",
    "GridSearchResult", "GridPoint", "DEFAULT_GRID", "DEFAULT_SVM_PARAMS", "grid_search",
]
