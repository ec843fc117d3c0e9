// fuzz.h -- golden-trace differential fuzzing across healers.
//
// A recorded trace is a concrete, known-good event sequence. The
// fuzzer perturbs it -- dropping, duplicating, reordering, retargeting
// and re-batching events -- and replays every mutant leniently against
// every healer under test with the full invariant battery attached.
// Healers are deterministic functions of (state, deletion context), so
// any violation a mutant provokes is a real bug in that healer (or the
// engine), not fuzz noise; the failing mutant is then shrunk to a
// minimal repro trace and persisted for `dash_lab replay`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "replay/trace.h"
#include "util/rng.h"

namespace dash::replay {

/// One random structural perturbation (1-3 point mutations): drop an
/// event or a span, duplicate an event, swap neighbors, retarget a
/// removal, merge adjacent removals into a batch, split a batch,
/// truncate the tail, drop a phase marker -- plus the two scenario-aware
/// edits below. The mutant keeps the header/snapshot, loses the footer,
/// and zeroes the (now stale) row digests; replay it leniently.
Trace mutate_trace(const Trace& t, dash::util::Rng& rng);

// ---- scenario-aware trace mutations ----------------------------------
// They edit recorded event streams *structurally*, using the
// phase-boundary markers the recorder stamps, which is what makes the
// fuzzer scenario-aware. Every coin comes from the caller's Rng.

/// Swap two whole phase segments (delimited by the trace's kPhase
/// markers). Returns false -- trace untouched -- when the trace has
/// fewer than two segments.
bool reorder_trace_phases(Trace& trace, dash::util::Rng& rng);

/// Perturb the churn rate inside one random phase segment: thin (drop)
/// or thicken (duplicate) roughly a quarter of its join/remove events.
/// Returns false when nothing changed.
bool perturb_trace_churn(Trace& trace, dash::util::Rng& rng);

struct FuzzOptions {
  std::size_t mutants = 20;
  std::uint64_t seed = 1;
  /// Healer specs to drive every mutant through; empty selects the
  /// paper's strategy set (core::paper_strategy_specs()).
  std::vector<std::string> healers;
  /// Shrink failing mutants and persist repro traces.
  bool shrink = true;
  /// Repro directory override (see replay::repro_dir()).
  std::string repro_dir;
};

struct FuzzFailure {
  std::size_t mutant = 0;     ///< mutant index (0-based)
  std::string healer;         ///< the healer that violated
  std::string violation;      ///< first invariant violation
  std::size_t original_events = 0;
  std::size_t shrunk_events = 0;
  std::string repro_path;     ///< written repro trace (when shrinking)
};

struct FuzzReport {
  std::size_t mutants = 0;
  std::size_t replays = 0;   ///< mutant x healer replays executed
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Mutate `golden` opt.mutants times and replay each mutant against
/// each healer (lenient, invariants on). Deterministic in opt.seed.
FuzzReport fuzz_trace(const Trace& golden, const FuzzOptions& opt = {});

}  // namespace dash::replay
