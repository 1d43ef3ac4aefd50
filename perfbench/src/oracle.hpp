// Reference computations and output checks, written apart from the
// program: plain loops for the normalized cross-correlation (Eq. 2) and
// the area between curves (Eq. 3), an exhaustive MDB scan, and binomial
// bounds for the Table I accuracies.  Each check returns the violations
// it found; an empty list means the output passed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "emap/core/config.hpp"
#include "emap/core/tracker.hpp"
#include "emap/mdb/store.hpp"
#include "emap/net/transport.hpp"

namespace perfbench::oracle {

/// Tolerance of a returned ω against the reference NCC.  The wire carries
/// ω as a float (relative error 6e-8) and the SIMD arm reorders the sums;
/// a real error (a wrong offset, a stale set) moves ω by far more.
inline constexpr double kOmegaTolerance = 1e-5;

/// Mean-removed, unit-norm dot product of two equal-length windows.
/// Zero-variance windows correlate as 0, two of them as 1.
double ncc(std::span<const double> a, std::span<const double> b);

/// Sum of absolute differences of two equal-length windows.
double area(std::span<const double> a, std::span<const double> b);

/// Position of each signal-set id in the store.
class StoreIndex {
 public:
  explicit StoreIndex(const emap::mdb::MdbStore& store);
  /// Nullptr when the id is not in the store.
  const emap::mdb::SignalSet* find(std::uint64_t set_id) const;

 private:
  const emap::mdb::MdbStore& store_;
  std::unordered_map<std::uint64_t, std::size_t> position_;
};

/// Exhaustive scan: NCC at every offset the method may return
/// (0 <= β < length(S) - length(I), Algorithm 1 line 4) of every set.
struct BruteForce {
  double best_omega = -1.0;
  /// Ids of the top-k sets ranked by their best ω, among sets whose best
  /// ω exceeds δ.
  std::vector<std::uint64_t> top_sets;
};
BruteForce brute_force_scan(std::span<const double> query,
                            const emap::mdb::MdbStore& store,
                            const emap::core::EmapConfig& config,
                            std::size_t threads);

/// Share of the exhaustive top-k sets among the set ids the method
/// returned (1 when no set exceeds δ).
double recall(const BruteForce& reference,
              const std::vector<std::uint64_t>& returned_set_ids);

/// Algorithm 1 evaluates a subset of the offsets the exhaustive scan
/// evaluates, so its best ω can never exceed the exhaustive best.
std::vector<std::string> check_upper_bound(const BruteForce& reference,
                                           double method_best_omega);

/// A correlation set as the edge decoded it: every ω equals the reference
/// NCC of `query` (the window the cloud received) at (set, β), exceeds δ
/// and comes in descending order; at most top_k entries; labels match the
/// stored set; every sample is within one 16-bit wire step (the entry's
/// peak / 32767) of the stored set.
std::vector<std::string> check_correlation_set(
    std::span<const double> query,
    const emap::net::CorrelationSetMessage& message, const StoreIndex& index,
    const emap::core::EmapConfig& config);

/// One Algorithm 2 step: counts balance
/// (before = after + dissimilar + exhausted, after = survivors), P_A is
/// the anomalous share of the survivors, and — with check_areas — every
/// survivor's area at its new β is within δ_A.
std::vector<std::string> check_track_step(
    const emap::core::TrackStepResult& step,
    std::span<const double> filtered_window,
    const std::vector<emap::core::TrackedSignal>& survivors,
    const emap::core::EmapConfig& config, bool check_areas);

/// Smallest correct count k with P(X <= k) >= tail for X ~ Bin(n, p): the
/// lower end of the binomial interval around p at n sessions.
std::size_t binomial_lower_end(std::size_t n, double p, double tail);

/// Lower tail of the Table I accuracy interval.  A two-sided 95 % interval
/// leaves 2.5 % below it; that share is split over every accuracy check a
/// benchmark gate makes (3 classes x 64 runs), so the interval keeps its
/// 95 % coverage jointly rather than failing a correct program in one run
/// out of a hundred.
inline constexpr double kAccuracyTail = 0.025 / (3.0 * 64.0);

/// One class of the Table I protocol.
struct ClassTally {
  std::string name;
  double paper_accuracy = 0.0;
  std::size_t sessions = 0;
  std::size_t correct = 0;
};
std::vector<std::string> check_accuracy(const std::vector<ClassTally>& tally);

}  // namespace perfbench::oracle
