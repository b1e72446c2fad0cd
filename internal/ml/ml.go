// Package ml implements the baseline classifiers PerSpectron is compared
// against in Table IV — a CART decision tree, logistic regression,
// K-nearest-neighbours, and a single-hidden-layer neural network trained by
// backpropagation. All are stdlib-only reimplementations of the
// scikit-learn models the paper used, and each meets eval.Model[[]float64]:
// Fit trains on scaled rows, and Score returns a decision value where
// positive means malicious and magnitude is confidence. The evaluation
// harness sweeps thresholds over Score for ROC construction.
package ml
