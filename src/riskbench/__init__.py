"""Competing-risks time-to-event toolkit.

Subpackages:
  gradcore  -- dense float64 tensors with reverse-mode autodiff, layers, Adam
  cohort    -- subjects, labeling rules, synthetic generators, splits
  features  -- standardization and per-category PCA on plain arrays
  models    -- DSM, Neural Fine-Gray and DeepHit behind one CIF contract
  metrics   -- time-dependent concordance index
  pipeline  -- nested CV with random hyperparameter search and reporting
  mae       -- masked autoencoder for dual-contrast 3D volumes
"""

__version__ = "0.1.0"
