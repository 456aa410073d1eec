#include "flash/error_model.h"

#include <algorithm>

namespace postblock::flash {

namespace {
/// Each rung of the controller's read-retry ladder re-senses with a
/// tuned reference voltage: error rates shrink by this factor per retry
/// step, the same for every flash class.
constexpr double kRetryRateDecay = 0.1;
}  // namespace

double ErrorModel::WearFactor(std::uint32_t erase_count) const {
  if (config_.endurance_cycles == 0) return 0.0;
  const double wear = static_cast<double>(erase_count) /
                      static_cast<double>(config_.endurance_cycles);
  return 1.0 + wear * wear * wear * config_.wear_amplification;
}

ReadOutcome ErrorModel::SampleRead(std::uint32_t erase_count, Rng* rng,
                                   std::uint32_t retry_step) const {
  double factor = WearFactor(erase_count);
  for (std::uint32_t i = 0; i < retry_step; ++i) {
    factor *= kRetryRateDecay;
  }
  const double p_uncorrectable =
      std::min(1.0, config_.base_uncorrectable_rate * factor);
  const double p_correctable =
      std::min(1.0, config_.base_correctable_rate * factor);
  const double draw = rng->NextDouble();
  if (draw < p_uncorrectable) return ReadOutcome::kUncorrectable;
  if (draw < p_uncorrectable + p_correctable) return ReadOutcome::kCorrectable;
  return ReadOutcome::kClean;
}

bool ErrorModel::SampleEraseFailure(std::uint32_t erase_count,
                                    Rng* rng) const {
  if (erase_count <= config_.endurance_cycles) return false;
  return rng->Bernoulli(config_.post_endurance_erase_failure);
}

}  // namespace postblock::flash
