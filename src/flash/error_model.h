#ifndef POSTBLOCK_FLASH_ERROR_MODEL_H_
#define POSTBLOCK_FLASH_ERROR_MODEL_H_

#include <cstdint>

#include "common/rng.h"

namespace postblock::flash {

/// Outcome of reading a page through ECC.
enum class ReadOutcome {
  kClean,          // no bit errors
  kCorrectable,    // ECC fixed it (costs nothing extra in this model)
  kUncorrectable,  // data loss — the controller must have redundancy
};

/// Wear-dependent reliability model (the paper's constraint C4 and the
/// "error management must happen at the SSD level" argument of Myth 1).
/// Raw bit error rate grows polynomially with the block's erase count;
/// beyond `endurance_cycles`, erases may permanently retire the block.
struct ErrorModelConfig {
  std::uint32_t endurance_cycles = 10000;  // MLC-class
  double base_correctable_rate = 1e-4;     // per read, fresh block
  double base_uncorrectable_rate = 1e-9;   // per read, fresh block
  /// Multiplier applied at 100% wear (rates scale with (wear)^3).
  double wear_amplification = 1e5;
  /// Probability an erase past endurance kills the block.
  double post_endurance_erase_failure = 0.02;

  static ErrorModelConfig Slc() {
    return {100000, 1e-5, 1e-10, 1e4, 0.01};
  }
  static ErrorModelConfig Mlc() { return {}; }
  static ErrorModelConfig Tlc() {
    // The paper: "5000 cycles for triple-level-cell flash".
    return {5000, 1e-3, 1e-8, 1e6, 0.05};
  }
  /// No stochastic failures at all — for deterministic tests/benches.
  static ErrorModelConfig None() { return {~0u, 0.0, 0.0, 0.0, 0.0}; }
};

/// Stateless policy object; all randomness comes from the injected Rng.
class ErrorModel {
 public:
  explicit ErrorModel(const ErrorModelConfig& config) : config_(config) {}

  const ErrorModelConfig& config() const { return config_; }

  /// `retry_step` > 0 models a re-sense on the controller's retry
  /// ladder: rates decay by kRetryRateDecay^step. Always draws exactly
  /// one random number, so attaching retries never perturbs clean-run
  /// schedules at step 0.
  ReadOutcome SampleRead(std::uint32_t erase_count, Rng* rng,
                         std::uint32_t retry_step = 0) const;

  /// True if this erase (the block's `erase_count`-th) kills the block.
  bool SampleEraseFailure(std::uint32_t erase_count, Rng* rng) const;

  /// Wear factor in [0, inf): rates scale with 1 + wear^3 * amplification.
  double WearFactor(std::uint32_t erase_count) const;

 private:
  ErrorModelConfig config_;
};

}  // namespace postblock::flash

#endif  // POSTBLOCK_FLASH_ERROR_MODEL_H_
