"""Multi-rater consensus learning toolkit.

Simulates two-stage adjudicated grading over synthetic data, derives
per-branch training labels from the raw ratings, and trains a three-branch
classifier (sensitivity / specificity / balanced fusion) with a consensus
loss and uncertainty-weighted soft-label distillation.
"""
