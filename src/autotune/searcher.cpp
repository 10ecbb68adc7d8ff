#include "autotune/searcher.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace aiacc::autotune {

// ---------------------------------------------------------------- Grid ----

GridSearcher::GridSearcher(core::CommConfigSpace space)
    : Searcher(std::move(space)) {
  const std::size_t n = space_.NumPoints();
  // Stratified order: walk the flat index space with a golden-ratio stride
  // (made co-prime with n), so the first few proposals span every axis of
  // the grid instead of crawling one axis.
  std::size_t stride = static_cast<std::size_t>(0.6180339887 * n) | 1;
  while (std::gcd(stride, n) != 1) stride += 2;
  order_.reserve(n);
  std::size_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    order_.push_back(at);
    at = (at + stride) % n;
  }
}

core::CommConfig GridSearcher::Propose(Rng& rng) {
  (void)rng;
  const core::CommConfig cfg = space_.ConfigAt(order_[next_ % order_.size()]);
  ++next_;
  return cfg;
}

void GridSearcher::Observe(const Observation& obs) { (void)obs; }

// ----------------------------------------------------------------- PBT ----

PbtSearcher::PbtSearcher(core::CommConfigSpace space, int population)
    : Searcher(std::move(space)), population_size_(population) {
  AIACC_CHECK(population >= 2);
}

core::CommConfig PbtSearcher::Perturb(const core::CommConfig& base,
                                      Rng& rng) const {
  core::CommConfig out = base;
  // Perturb one axis to a neighbouring grid value.
  auto nudge = [&rng](auto& value, const auto& options) {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < options.size(); ++i) {
      if (options[i] == value) idx = i;
    }
    const std::int64_t dir = rng.Chance(0.5) ? 1 : -1;
    const auto n = static_cast<std::int64_t>(options.size());
    const std::int64_t next = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(idx) + dir, 0, n - 1);
    value = options[static_cast<std::size_t>(next)];
  };
  switch (rng.UniformInt(0, 2)) {
    case 0: nudge(out.num_streams, space_.stream_options); break;
    case 1: nudge(out.granularity_bytes, space_.granularity_options); break;
    default:
      out.algorithm = out.algorithm == collective::Algorithm::kRing
                          ? collective::Algorithm::kHierarchical
                          : collective::Algorithm::kRing;
  }
  out.min_bucket_bytes =
      std::min<std::size_t>(out.granularity_bytes, 1u << 20);
  return out;
}

core::CommConfig PbtSearcher::Propose(Rng& rng) {
  if (!initialized_) {
    population_.clear();
    for (int i = 0; i < population_size_; ++i) {
      Member m;
      m.config = space_.ConfigAt(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(space_.NumPoints()) - 1)));
      population_.push_back(m);
    }
    initialized_ = true;
  }
  // Evaluate any member that has no score yet.
  for (std::size_t i = 0; i < population_.size(); ++i) {
    if (!population_[i].evaluated) {
      pending_ = i;
      return population_[i].config;
    }
  }
  // Exploit + explore: clone a top-quartile member, perturb it, and replace
  // the worst member.
  std::vector<std::size_t> idx(population_.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return population_[a].score > population_[b].score;
  });
  const std::size_t top =
      idx[static_cast<std::size_t>(rng.UniformInt(
          0, std::max<std::int64_t>(0, population_size_ / 4 - 1)))];
  const std::size_t worst = idx.back();
  population_[worst].config = Perturb(population_[top].config, rng);
  population_[worst].evaluated = false;
  pending_ = worst;
  return population_[worst].config;
}

void PbtSearcher::Observe(const Observation& obs) {
  if (!initialized_ || pending_ >= population_.size()) return;
  population_[pending_].score = obs.score;
  population_[pending_].evaluated = true;
}

// --------------------------------------------------------------- Bayes ----

BayesSearcher::BayesSearcher(core::CommConfigSpace space)
    : Searcher(std::move(space)) {}

std::vector<double> BayesSearcher::Encode(const core::CommConfig& c) const {
  // Normalize to [0,1]^3: log2(streams)/5, position of granularity on its
  // log scale, and the algorithm as a binary coordinate.
  const double s = std::log2(static_cast<double>(c.num_streams)) / 5.0;
  const double lo =
      std::log2(static_cast<double>(space_.granularity_options.front()));
  const double hi =
      std::log2(static_cast<double>(space_.granularity_options.back()));
  const double g =
      (std::log2(static_cast<double>(c.granularity_bytes)) - lo) /
      std::max(1.0, hi - lo);
  const double a = c.algorithm == collective::Algorithm::kRing ? 0.0 : 1.0;
  return {s, g, a};
}

namespace {

double RbfKernel(const std::vector<double>& a, const std::vector<double>& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  constexpr double kLengthScale = 0.35;
  return std::exp(-d2 / (2.0 * kLengthScale * kLengthScale));
}

/// Solve (K + noise I) alpha = y by Gaussian elimination (n is tiny).
std::vector<double> SolveLinear(std::vector<std::vector<double>> a,
                                std::vector<double> y) {
  const std::size_t n = y.size();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(y[col], y[pivot]);
    const double diag = a[col][col];
    AIACC_CHECK(std::fabs(diag) > 1e-12);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / diag;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      y[r] -= f * y[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t r = n; r-- > 0;) {
    double sum = y[r];
    for (std::size_t c = r + 1; c < n; ++c) sum -= a[r][c] * x[c];
    x[r] = sum / a[r][r];
  }
  return x;
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
}

}  // namespace

core::CommConfig BayesSearcher::Propose(Rng& rng) {
  if (xs_.size() < 3) {
    // Bootstrap with random samples.
    return space_.ConfigAt(static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(space_.NumPoints()) - 1)));
  }
  // Fit the GP: alpha = (K + sigma^2 I)^-1 y on standardized scores.
  const std::size_t n = xs_.size();
  double mean = 0.0;
  for (double y : ys_) mean += y;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double y : ys_) var += (y - mean) * (y - mean);
  var = std::max(var / static_cast<double>(n), 1e-12);
  const double stddev = std::sqrt(var);

  std::vector<std::vector<double>> k(n, std::vector<double>(n));
  std::vector<double> y_std(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) k[i][j] = RbfKernel(xs_[i], xs_[j]);
    k[i][i] += 1e-3;  // observation noise
    y_std[i] = (ys_[i] - mean) / stddev;
  }
  const std::vector<double> alpha = SolveLinear(k, y_std);

  double best_y = *std::max_element(y_std.begin(), y_std.end());
  double best_ei = -1.0;
  core::CommConfig best_cfg = space_.ConfigAt(0);
  for (std::size_t p = 0; p < space_.NumPoints(); ++p) {
    const core::CommConfig cfg = space_.ConfigAt(p);
    const std::vector<double> x = Encode(cfg);
    double mu = 0.0;
    double k_self = RbfKernel(x, x);
    // Approximate predictive variance via the Nystrom-style bound
    // k(x,x) - sum_i k(x,xi)^2 / (k(xi,xi)+noise) (cheap, monotone in the
    // true variance — adequate for an acquisition argmax on a small grid).
    double var_red = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ki = RbfKernel(x, xs_[i]);
      mu += ki * alpha[i];
      var_red += ki * ki / (1.0 + 1e-3);
    }
    const double sigma = std::sqrt(
        std::max(1e-9, k_self - var_red / static_cast<double>(n)));
    const double z = (mu - best_y) / sigma;
    const double ei = (mu - best_y) * NormalCdf(z) + sigma * NormalPdf(z);
    if (ei > best_ei) {
      best_ei = ei;
      best_cfg = cfg;
    }
  }
  return best_cfg;
}

void BayesSearcher::Observe(const Observation& obs) {
  xs_.push_back(Encode(obs.config));
  ys_.push_back(obs.score);
}

// ----------------------------------------------------------- Hyperband ----

HyperbandSearcher::HyperbandSearcher(core::CommConfigSpace space,
                                     int rung_size, int eta)
    : Searcher(std::move(space)), rung_size_(rung_size), eta_(eta) {
  AIACC_CHECK(rung_size >= eta && eta >= 2);
}

void HyperbandSearcher::StartBracket(Rng& rng) {
  rung_.clear();
  for (int i = 0; i < rung_size_; ++i) {
    Candidate c;
    c.config = space_.ConfigAt(static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(space_.NumPoints()) - 1)));
    rung_.push_back(c);
  }
  next_in_rung_ = 0;
  bracket_active_ = true;
}

core::CommConfig HyperbandSearcher::Propose(Rng& rng) {
  if (!bracket_active_) StartBracket(rng);
  if (next_in_rung_ >= rung_.size()) {
    // Rung complete: promote the top 1/eta; a rung of one ends the bracket.
    std::sort(rung_.begin(), rung_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.Mean() > b.Mean();
              });
    const std::size_t keep =
        std::max<std::size_t>(1, rung_.size() / static_cast<std::size_t>(eta_));
    if (keep == rung_.size() || keep <= 1) {
      StartBracket(rng);
    } else {
      rung_.resize(keep);
      next_in_rung_ = 0;
    }
  }
  return rung_[next_in_rung_].config;
}

void HyperbandSearcher::Observe(const Observation& obs) {
  if (!bracket_active_ || next_in_rung_ >= rung_.size()) return;
  rung_[next_in_rung_].score_sum += obs.score;
  rung_[next_in_rung_].evals += 1;
  ++next_in_rung_;
}

// -------------------------------------------------------------- Factory ----

std::vector<std::unique_ptr<Searcher>> MakeDefaultEnsemble(
    const core::CommConfigSpace& space) {
  std::vector<std::unique_ptr<Searcher>> out;
  out.push_back(std::make_unique<GridSearcher>(space));
  out.push_back(std::make_unique<PbtSearcher>(space));
  out.push_back(std::make_unique<BayesSearcher>(space));
  out.push_back(std::make_unique<HyperbandSearcher>(space));
  return out;
}

}  // namespace aiacc::autotune
