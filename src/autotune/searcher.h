// Search-technique interface for the communication-parameter auto-tuner
// (paper §VI). Each technique proposes one CommConfig per tuning step (one
// warm-up training iteration) and observes the measured throughput. The
// ensemble is coordinated by the MAB meta-solver.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"

namespace aiacc::autotune {

struct Observation {
  core::CommConfig config;
  /// Higher is better (training throughput, samples/sec).
  double score = 0.0;
};

class Searcher {
 public:
  explicit Searcher(core::CommConfigSpace space) : space_(std::move(space)) {}
  virtual ~Searcher() = default;

  /// Propose the next configuration to evaluate.
  virtual core::CommConfig Propose(Rng& rng) = 0;
  /// Feed back the result of evaluating a proposal from this searcher.
  virtual void Observe(const Observation& obs) = 0;
  [[nodiscard]] virtual std::string Name() const = 0;

 protected:
  core::CommConfigSpace space_;
};

/// Exhaustive sweep in a stratified order (coarse-to-fine over the grid), so
/// even a small budget covers the extremes of each axis early.
class GridSearcher final : public Searcher {
 public:
  explicit GridSearcher(core::CommConfigSpace space);
  core::CommConfig Propose(Rng& rng) override;
  void Observe(const Observation& obs) override;
  [[nodiscard]] std::string Name() const override { return "grid"; }

 private:
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

/// Population-based training (Jaderberg et al.): keep a population of
/// configurations; exploit (clone a top performer) + explore (perturb one
/// axis) replace the bottom performers.
class PbtSearcher final : public Searcher {
 public:
  PbtSearcher(core::CommConfigSpace space, int population = 8);
  core::CommConfig Propose(Rng& rng) override;
  void Observe(const Observation& obs) override;
  [[nodiscard]] std::string Name() const override { return "pbt"; }

 private:
  struct Member {
    core::CommConfig config;
    double score = 0.0;
    bool evaluated = false;
  };
  core::CommConfig Perturb(const core::CommConfig& base, Rng& rng) const;

  int population_size_;
  std::vector<Member> population_;
  std::size_t pending_ = 0;  // member awaiting observation
  bool initialized_ = false;
};

/// Bayesian optimization with a Gaussian-process surrogate (RBF kernel over
/// the normalized parameter space) and expected-improvement acquisition over
/// the discrete grid.
class BayesSearcher final : public Searcher {
 public:
  explicit BayesSearcher(core::CommConfigSpace space);
  core::CommConfig Propose(Rng& rng) override;
  void Observe(const Observation& obs) override;
  [[nodiscard]] std::string Name() const override { return "bayes"; }

 private:
  [[nodiscard]] std::vector<double> Encode(const core::CommConfig& c) const;

  std::vector<std::vector<double>> xs_;
  std::vector<double> ys_;
};

/// Hyperband-style successive halving: evaluate a rung of sampled configs
/// with one observation each, promote the top 1/eta to the next rung for
/// re-evaluation (scores are averaged across rungs), restart brackets when
/// exhausted.
class HyperbandSearcher final : public Searcher {
 public:
  HyperbandSearcher(core::CommConfigSpace space, int rung_size = 9,
                    int eta = 3);
  core::CommConfig Propose(Rng& rng) override;
  void Observe(const Observation& obs) override;
  [[nodiscard]] std::string Name() const override { return "hyperband"; }

 private:
  struct Candidate {
    core::CommConfig config;
    double score_sum = 0.0;
    int evals = 0;
    [[nodiscard]] double Mean() const {
      return evals > 0 ? score_sum / evals : 0.0;
    }
  };
  void StartBracket(Rng& rng);

  int rung_size_;
  int eta_;
  std::vector<Candidate> rung_;
  std::size_t next_in_rung_ = 0;
  bool bracket_active_ = false;
};

/// The ensemble the paper uses: grid, PBT, Bayesian optimization, Hyperband.
std::vector<std::unique_ptr<Searcher>> MakeDefaultEnsemble(
    const core::CommConfigSpace& space);

}  // namespace aiacc::autotune
