// k-fold cross-validation grid search for the SVM hyper-parameters
// (Section IV: "we use 10-fold cross validation to tune the model parameter
// λ and σ² on the training set").
//
// Task order: σ²-major. For each σ² the search builds one Gram matrix
// over the whole dataset (a parallel build, the only n×n matrix alive at
// that point), then runs every (λ × fold) task against it in parallel on
// the shared pool (util/parallel.h); a fold trains on a row-and-column
// gather of that matrix, which is bit-identical to building the Gram of
// its training split (see GramMatrix in kernel.h). So a grid of |σ²|
// values costs |σ²| Gram builds, not |λ|·|σ²|·folds, and peak memory is
// one n×n matrix plus one fold Gram per thread.
//
// The fold split is drawn up front from the caller's seed, each task is a
// pure function of (data, Gram, params, fold), trial rows stay in λ-major
// order, and each grid point's reduction happens serially in fold order —
// so every accuracy, trial row, and the winning (λ, σ²) are byte-identical
// for --threads 1 and --threads N, and to per-fold Gram builds.
#pragma once

#include <vector>

#include "ml/dataset.h"
#include "ml/svm.h"
#include "util/rng.h"

namespace leaps::ml {

struct GridPoint {
  double lambda = 0.0;
  double sigma2 = 0.0;
  double accuracy = 0.0;  // mean held-out accuracy across folds
};

struct GridSearchResult {
  SvmParams best;
  double best_accuracy = 0.0;
  std::vector<GridPoint> trials;
};

struct CrossValidationOptions {
  std::vector<double> lambdas = {1.0, 10.0, 100.0};
  std::vector<double> sigma2s = {2.0, 8.0, 32.0};
  std::size_t folds = 10;
  /// Score held-out folds by weight-weighted accuracy (Σ cᵢ·[correct]/Σ cᵢ)
  /// instead of plain accuracy. Plain accuracy *rewards* classifying the
  /// mislabeled (benign-looking, low-cᵢ) mixed windows as malicious, which
  /// systematically selects over-aggressive hyper-parameters for the WSVM;
  /// weighting the validation score by the same confidences the training
  /// objective uses removes that bias. Has no effect when all weights are 1
  /// (the plain-SVM case).
  bool weighted_validation = false;
};

/// Stratified-ish k-fold (folds are random after a shuffle): returns
/// `folds` disjoint index sets covering [0, n).
std::vector<std::vector<std::size_t>> make_folds(std::size_t n,
                                                 std::size_t folds,
                                                 util::Rng& rng);

/// Mean held-out accuracy of `params` under k-fold CV. Folds whose training
/// split degenerates (one class absent) are skipped. With
/// `weighted_validation`, held-out accuracy is confidence-weighted.
double cross_validate(const Dataset& data, const SvmParams& params,
                      std::size_t folds, util::Rng& rng,
                      bool weighted_validation = false);

/// Full grid search; `base` supplies everything except λ and σ².
GridSearchResult tune_svm(const Dataset& data, const SvmParams& base,
                          const CrossValidationOptions& options,
                          util::Rng& rng);

}  // namespace leaps::ml
