// Gilbert–Elliott bursty-loss channel model.
//
// Uniform i.i.d. loss (Network::set_random_loss) is the wrong stressor
// for go-back-N style recovery: real link faults arrive in bursts (a
// flapping transceiver, an overloaded switch ASIC, EMI), which is exactly
// the regime where a retransmit window either saves a run or collapses
// it.  The classic two-state Markov model captures that correlation: a
// GOOD state with low per-frame loss and a BAD state with high loss,
// switching with configured per-frame transition probabilities.
//
// The chain advances once per offered frame, from its own RNG stream, so
// a run's loss pattern is a pure function of (parameters, seed) — the
// determinism contract of docs/FAULTS.md.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace acc::fault {

struct GilbertElliottParams {
  /// Per-frame probability of switching GOOD -> BAD (and back).  The
  /// stationary fraction of frames seen in BAD is
  /// p_good_to_bad / (p_good_to_bad + p_bad_to_good); the mean burst
  /// length is 1 / p_bad_to_good frames.
  double p_good_to_bad = 0.01;
  double p_bad_to_good = 0.25;
  /// Per-frame loss probability within each state.
  double loss_good = 0.0;
  double loss_bad = 0.5;
};

class GilbertElliott {
 public:
  GilbertElliott(const GilbertElliottParams& params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Advances the chain one frame; returns true if that frame is lost.
  bool lose_frame() {
    if (bad_) {
      if (rng_.chance(params_.p_bad_to_good)) bad_ = false;
    } else {
      if (rng_.chance(params_.p_good_to_bad)) bad_ = true;
    }
    (bad_ ? frames_bad_ : frames_good_)++;
    return rng_.chance(bad_ ? params_.loss_bad : params_.loss_good);
  }

  std::uint64_t frames_in_good() const { return frames_good_; }
  std::uint64_t frames_in_bad() const { return frames_bad_; }
  const GilbertElliottParams& params() const { return params_; }

 private:
  GilbertElliottParams params_;
  Rng rng_;
  bool bad_ = false;  // chains start healthy
  std::uint64_t frames_good_ = 0;
  std::uint64_t frames_bad_ = 0;
};

}  // namespace acc::fault
