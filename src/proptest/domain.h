// Domain generators + shrinkers + fixture printers for the harness.
//
// Everything the built-in properties (properties.cpp) generate lives
// here: per-slot allocation problems (with tie-heavy and loss-aware
// variants), user channels, fault-schedule configs, wire messages, and
// seeded single-byte corruption cases for the codec. Each type has
//
//   * a generator (pure function of cvr::Rng — see gen.h),
//   * a ShrinkTraits specialization proposing strictly simpler
//     instances (drop users, lower level ceilings, halve bandwidths),
//   * a FixtureTraits specialization printing a literal C++ fixture.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "src/core/allocator.h"
#include "src/faults/fault_schedule.h"
#include "src/proptest/fixture.h"
#include "src/proptest/gen.h"
#include "src/proptest/shrink.h"
#include "src/proto/messages.h"

namespace cvr::proptest {

// ---------------------------------------------------------------------------
// SlotProblem

/// Knobs for the SlotProblem generator. Defaults match the broad sweep
/// used by most allocator properties; the named presets below tighten
/// them for specific oracles.
struct SlotProblemGenConfig {
  std::size_t min_users = 1;
  std::size_t max_users = 8;
  /// Probability that a generated user is a byte-identical copy of an
  /// earlier user — identical marginal scores at every level, forcing
  /// exact argmax ties (the scan-vs-heap tie-break oracle needs them).
  double duplicate_user_probability = 0.0;
  /// Probability of quantizing all rates/bandwidths to a coarse 0.25
  /// grid, which makes exactly-on-the-cap budget boundaries common.
  double quantize_probability = 0.0;
  /// Probability of folding a Section-VIII frame loss into a user's
  /// success lane, delta * (1 - loss) per level (may break h's
  /// concavity; keep 0 for properties that assume it).
  double loss_aware_probability = 0.0;
  /// Only build rate/delay tables analytically (CRF rate function +
  /// M/M/1 delay); required by the concavity property. When false,
  /// half the users get arbitrary strictly-increasing random tables.
  bool analytic_tables_only = false;
  /// Server budget = (sum of level-1 rates) * uniform[tight, roomy].
  double min_tightness = 0.9;
  double max_tightness = 3.5;
  /// Probability of rescaling a user's tables to the edges of the
  /// double range: rate axis by an exact power of two (2^-1000 or
  /// 2^600 — ordering preserved, densities pushed to ~2^±1000) and,
  /// half the time, delays into the DENORMAL range. The SIMD kernels
  /// must stay bit-identical to the scalar path even here.
  double extreme_rate_probability = 0.0;
  /// Probability of making user 0 unbounded: every rate +inf under an
  /// unbounded B_n. Each of its rate steps is then inf - inf = NaN,
  /// which HTableSet lets through, and the all-ones total is +inf, so
  /// only those NaN steps can be applied. Every other user is pinned
  /// at level 1 (B_n = f(1)): user 0's entries, NaN-scored in the
  /// density pass, are then the only ones the dv-heap holds. Drawn
  /// last, so the instance is unchanged whenever it does not fire.
  double unbounded_user_probability = 0.0;
};

/// Preset for the differential oracles that need an exact solver:
/// small N so BruteForceAllocator stays fast.
SlotProblemGenConfig small_exact_config();

/// Preset for the scan-vs-heap bit-identity sweep: duplicate users and
/// quantized rates to hammer score ties and budget boundaries.
SlotProblemGenConfig tie_heavy_config();

/// tie_heavy_config() plus unbounded users (unbounded_user_probability):
/// the scan-vs-heap sweep draws both the dv-heap's budget cut-off and
/// the NaN rate steps that must switch it off.
SlotProblemGenConfig scan_heap_config();

/// Preset for properties that assume the published (loss-oblivious,
/// analytic-table) model, e.g. discrete concavity of h.
SlotProblemGenConfig published_model_config();

/// Preset for the SIMD≡scalar bit-exactness sweep: user counts
/// covering every residue of the vector width (remainder lanes),
/// tie-heavy duplicates, and extreme/denormal-scaled tables.
SlotProblemGenConfig extreme_rates_config();

core::SlotProblem gen_slot_problem(cvr::Rng& rng,
                                   const SlotProblemGenConfig& config);

/// Generator form of gen_slot_problem for CVR_PROPERTY.
Gen<core::SlotProblem> slot_problems(SlotProblemGenConfig config = {});

template <>
struct ShrinkTraits<core::SlotProblem> {
  static std::vector<core::SlotProblem> candidates(
      const core::SlotProblem& problem);
};

template <>
struct FixtureTraits<core::SlotProblem> {
  static std::string show(const core::SlotProblem& problem);
};

// ---------------------------------------------------------------------------
// Fault schedules

Gen<faults::FaultScheduleConfig> fault_schedule_configs();

template <>
struct ShrinkTraits<faults::FaultScheduleConfig> {
  static std::vector<faults::FaultScheduleConfig> candidates(
      const faults::FaultScheduleConfig& config);
};

template <>
struct FixtureTraits<faults::FaultScheduleConfig> {
  static std::string show(const faults::FaultScheduleConfig& config);
};

// ---------------------------------------------------------------------------
// Wire messages

using WireMessage =
    std::variant<proto::PoseUpdate, proto::DeliveryAck, proto::ReleaseAck,
                 proto::TileHeader, proto::ConnectRequest,
                 proto::AdmitResponse, proto::DisconnectNotice,
                 proto::UserHandoff>;

WireMessage gen_wire_message(cvr::Rng& rng);
Gen<WireMessage> wire_messages();

/// Encodes whichever alternative the variant holds.
proto::Buffer encode_wire_message(const WireMessage& message);

template <>
struct ShrinkTraits<WireMessage> {
  static std::vector<WireMessage> candidates(const WireMessage& message);
};

template <>
struct FixtureTraits<WireMessage> {
  static std::string show(const WireMessage& message);
};

// ---------------------------------------------------------------------------
// Seeded malformed-bytes corpus

/// One corruption of a valid encoded frame. The mutation is sound for
/// a CRC32-framed codec: a single overwritten byte (an error burst of
/// <= 8 bits) is always detected, and truncation/appending violates
/// framing — so decode must throw; silently accepting the mutant frame
/// is a codec bug unless the mutation was a no-op.
struct MutationCase {
  enum class Op { kOverwriteByte, kTruncate, kAppend };

  WireMessage message;       ///< The valid message that was encoded.
  Op op = Op::kOverwriteByte;
  std::size_t position = 0;  ///< Byte index (overwrite) / new size (truncate).
  std::uint8_t value = 0;    ///< Overwrite/append byte value.

  /// The corrupted frame (encode + mutate).
  proto::Buffer mutated() const;
  /// True when the mutation leaves the frame byte-identical (e.g.
  /// overwriting a byte with its current value) — such cases are
  /// vacuously fine and the property skips them.
  bool is_noop() const;
};

MutationCase gen_mutation_case(cvr::Rng& rng);
Gen<MutationCase> mutation_cases();

template <>
struct ShrinkTraits<MutationCase> {
  static std::vector<MutationCase> candidates(const MutationCase& mutation);
};

template <>
struct FixtureTraits<MutationCase> {
  static std::string show(const MutationCase& mutation);
};

// ---------------------------------------------------------------------------
// Welford / QoE-accumulator sample streams

/// Samples spanning magnitudes (1e-6 .. 1e9, signed) plus a split point
/// for the merge property.
struct SampleStream {
  std::vector<double> samples;
  std::size_t split = 0;  ///< In [0, samples.size()].
};

Gen<SampleStream> sample_streams(std::size_t max_len = 300);

template <>
struct ShrinkTraits<SampleStream> {
  static std::vector<SampleStream> candidates(const SampleStream& stream);
};

template <>
struct FixtureTraits<SampleStream> {
  static std::string show(const SampleStream& stream);
};

/// One user's per-slot outcomes for the QoE-accumulator decomposition
/// property: chosen level, displayed quality (0 on a miss), delay.
struct QoeTrace {
  struct Step {
    int chosen = 1;
    double displayed = 0.0;
    double delay = 0.0;
  };
  std::vector<Step> steps;
};

Gen<QoeTrace> qoe_traces(std::size_t max_len = 200);

template <>
struct ShrinkTraits<QoeTrace> {
  static std::vector<QoeTrace> candidates(const QoeTrace& trace);
};

template <>
struct FixtureTraits<QoeTrace> {
  static std::string show(const QoeTrace& trace);
};

}  // namespace cvr::proptest
