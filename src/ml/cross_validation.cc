#include "ml/cross_validation.h"

#include <algorithm>
#include <numeric>

#include "ml/metrics.h"
#include "util/check.h"
#include "util/parallel.h"

namespace leaps::ml {

std::vector<std::vector<std::size_t>> make_folds(std::size_t n,
                                                 std::size_t folds,
                                                 util::Rng& rng) {
  LEAPS_CHECK_MSG(folds >= 2, "need at least 2 folds");
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  rng.shuffle(indices);
  std::vector<std::vector<std::size_t>> out(folds);
  for (std::size_t i = 0; i < n; ++i) {
    out[i % folds].push_back(indices[i]);
  }
  return out;
}

namespace {

bool has_both_classes(const Dataset& d) {
  bool pos = false;
  bool neg = false;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d.weight[i] <= 0.0) continue;
    (d.y[i] > 0 ? pos : neg) = true;
  }
  return pos && neg;
}

struct FoldOutcome {
  double accuracy = 0.0;
  bool used = false;  // false: empty test set, degenerate train, no weight
};

/// One held-out fold: train on the complement, score the fold. Pure —
/// deterministic in its inputs, no shared state — so folds and grid points
/// evaluate concurrently without changing any reported number. (SVM
/// training itself has no randomness; the only RNG in CV is the fold
/// shuffle, which happens up front on the caller's seed.) `K` is the Gram
/// matrix of all of `data` under params.kernel; the fold trains on its
/// gather, which equals a build over the training split bit for bit.
FoldOutcome run_fold(const Dataset& data, const GramMatrix& K,
                     const SvmParams& params,
                     const std::vector<std::size_t>& test_idx,
                     bool weighted_validation) {
  FoldOutcome out;
  if (test_idx.empty()) return out;
  const std::size_t n = data.size();
  std::vector<char> in_test(n, 0);
  for (const std::size_t i : test_idx) in_test[i] = 1;
  std::vector<std::size_t> train_idx;
  train_idx.reserve(n - test_idx.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_test[i]) train_idx.push_back(i);
  }
  const Dataset train = data.subset(train_idx);
  if (!has_both_classes(train)) return out;

  const SvmModel model =
      SvmTrainer(params).train(train, GramMatrix(K, train_idx));
  double correct = 0.0;
  double total = 0.0;
  for (const std::size_t i : test_idx) {
    const double w = weighted_validation ? data.weight[i] : 1.0;
    total += w;
    if (model.predict(data.X[i]) == data.y[i]) correct += w;
  }
  if (total <= 0.0) return out;
  out.accuracy = correct / total;
  out.used = true;
  return out;
}

/// Serial reduction in fold order — the same arithmetic sequence the old
/// sequential loop performed, so the mean is byte-identical regardless of
/// how many threads evaluated the folds.
double reduce_folds(const FoldOutcome* outcomes, std::size_t folds) {
  double acc_sum = 0.0;
  std::size_t used = 0;
  for (std::size_t f = 0; f < folds; ++f) {
    if (!outcomes[f].used) continue;
    acc_sum += outcomes[f].accuracy;
    ++used;
  }
  return used == 0 ? 0.0 : acc_sum / static_cast<double>(used);
}

}  // namespace

double cross_validate(const Dataset& data, const SvmParams& params,
                      std::size_t folds, util::Rng& rng,
                      bool weighted_validation) {
  const std::size_t n = data.size();
  LEAPS_CHECK_MSG(n >= folds, "fewer samples than folds");
  data.validate();
  const auto fold_sets = make_folds(n, folds, rng);

  const GramMatrix K(data.X, params.kernel);
  std::vector<FoldOutcome> outcomes(fold_sets.size());
  util::parallel_for(0, fold_sets.size(), 1, [&](std::size_t b,
                                                 std::size_t e) {
    for (std::size_t f = b; f < e; ++f) {
      outcomes[f] =
          run_fold(data, K, params, fold_sets[f], weighted_validation);
    }
  });
  return reduce_folds(outcomes.data(), outcomes.size());
}

GridSearchResult tune_svm(const Dataset& data, const SvmParams& base,
                          const CrossValidationOptions& options,
                          util::Rng& rng) {
  LEAPS_CHECK_MSG(!options.lambdas.empty() && !options.sigma2s.empty(),
                  "empty hyper-parameter grid");
  LEAPS_CHECK_MSG(data.size() >= options.folds, "fewer samples than folds");
  data.validate();

  // Identical fold split for every grid point: comparisons stay fair. The
  // fork is const on rng, so this matches the historic per-point fork.
  util::Rng fold_rng = rng.fork(0xF01D5);
  const auto fold_sets = make_folds(data.size(), options.folds, fold_rng);

  std::vector<std::pair<double, double>> grid;  // (λ, σ²) in trial order
  grid.reserve(options.lambdas.size() * options.sigma2s.size());
  for (const double lambda : options.lambdas) {
    for (const double sigma2 : options.sigma2s) {
      grid.emplace_back(lambda, sigma2);
    }
  }

  // σ²-major: one Gram matrix per σ², built at top level so the build
  // itself fans out over the pool, then one task per (λ × fold) trains on
  // gathers from it. Only one full n×n matrix is alive at a time.
  // outcomes[g * folds + f] keeps the trial (λ-major) layout, so the
  // reduction below is the same serial sequence whatever the task order.
  const std::size_t folds = fold_sets.size();
  const std::size_t n_sigma2 = options.sigma2s.size();
  std::vector<FoldOutcome> outcomes(grid.size() * folds);
  for (std::size_t s = 0; s < n_sigma2; ++s) {
    SvmParams p = base;
    p.kernel.sigma2 = options.sigma2s[s];
    const GramMatrix K(data.X, p.kernel);
    util::parallel_for(
        0, options.lambdas.size() * folds, 1,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t task = b; task < e; ++task) {
            const std::size_t l = task / folds;
            const std::size_t f = task % folds;
            SvmParams q = p;
            q.lambda = options.lambdas[l];
            outcomes[(l * n_sigma2 + s) * folds + f] = run_fold(
                data, K, q, fold_sets[f], options.weighted_validation);
          }
        });
  }

  GridSearchResult result;
  result.best = base;
  result.best_accuracy = -1.0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const double acc = reduce_folds(&outcomes[g * folds], folds);
    result.trials.push_back({grid[g].first, grid[g].second, acc});
    if (acc > result.best_accuracy) {
      result.best_accuracy = acc;
      result.best = base;
      result.best.lambda = grid[g].first;
      result.best.kernel.sigma2 = grid[g].second;
    }
  }
  return result;
}

}  // namespace leaps::ml
