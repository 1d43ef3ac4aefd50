#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench::oracle {
namespace {

std::string format(const char* pattern, double a, double b = 0.0,
                   double c = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, pattern, a, b, c);
  return buffer;
}

double sum(std::span<const double> values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// One returned match, with ω as the edge received it.
struct Match {
  std::uint64_t set_id;
  double omega;
  std::size_t beta;
  bool anomalous;
  std::uint8_t class_tag;
};

std::vector<std::string> check_matches(std::span<const double> query,
                                       const std::vector<Match>& matches,
                                       const StoreIndex& index,
                                       const emap::core::EmapConfig& config) {
  std::vector<std::string> violations;
  if (matches.size() > config.top_k) {
    violations.push_back(format("%g matches exceed top_k %g",
                                static_cast<double>(matches.size()),
                                static_cast<double>(config.top_k)));
  }
  const std::size_t window = config.window_length;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    const Match& m = matches[i];
    const emap::mdb::SignalSet* set = index.find(m.set_id);
    if (set == nullptr) {
      violations.push_back(
          format("match %g names set %g, which is not in the MDB",
                 static_cast<double>(i), static_cast<double>(m.set_id)));
      continue;
    }
    if (set->samples.size() < window ||
        m.beta >= set->samples.size() - window) {
      violations.push_back(format("match %g: offset %g outside the set",
                                  static_cast<double>(i),
                                  static_cast<double>(m.beta)));
      continue;
    }
    const double reference = ncc(
        query, std::span<const double>(set->samples).subspan(m.beta, window));
    if (std::abs(reference - m.omega) > kOmegaTolerance) {
      violations.push_back(
          format("match %g: omega %.9f, reference NCC %.9f",
                 static_cast<double>(i), m.omega, reference));
    }
    if (!(reference > config.delta)) {
      violations.push_back(format("match %g: reference NCC %.9f not above "
                                  "delta %.3f",
                                  static_cast<double>(i), reference,
                                  config.delta));
    }
    if (i > 0 && m.omega > matches[i - 1].omega) {
      violations.push_back(format("match %g: omega %.9f above its "
                                  "predecessor %.9f",
                                  static_cast<double>(i), m.omega,
                                  matches[i - 1].omega));
    }
    if (m.anomalous != set->anomalous || m.class_tag != set->class_tag) {
      violations.push_back(format("match %g: label differs from set %g",
                                  static_cast<double>(i),
                                  static_cast<double>(m.set_id)));
    }
  }
  return violations;
}

}  // namespace

double ncc(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size();
  const double mean_a = sum(a) / static_cast<double>(n);
  const double mean_b = sum(b) / static_cast<double>(n);
  double dot = 0.0;
  double norm_a = 0.0;
  double norm_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a[i] - mean_a;
    const double y = b[i] - mean_b;
    dot += x * y;
    norm_a += x * x;
    norm_b += y * y;
  }
  if (norm_a == 0.0 || norm_b == 0.0) {
    return norm_a == 0.0 && norm_b == 0.0 ? 1.0 : 0.0;
  }
  return std::clamp(dot / std::sqrt(norm_a * norm_b), -1.0, 1.0);
}

double area(std::span<const double> a, std::span<const double> b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += std::abs(a[i] - b[i]);
  }
  return total;
}

StoreIndex::StoreIndex(const emap::mdb::MdbStore& store) : store_(store) {
  position_.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    position_.emplace(store.at(i).id, i);
  }
}

const emap::mdb::SignalSet* StoreIndex::find(std::uint64_t set_id) const {
  const auto it = position_.find(set_id);
  return it == position_.end() ? nullptr : &store_.at(it->second);
}

BruteForce brute_force_scan(std::span<const double> query,
                            const emap::mdb::MdbStore& store,
                            const emap::core::EmapConfig& config,
                            std::size_t threads) {
  const std::size_t n = query.size();
  const double query_mean = sum(query) / static_cast<double>(n);
  std::vector<double> centered(n);
  double query_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    centered[i] = query[i] - query_mean;
    query_norm += centered[i] * centered[i];
  }
  query_norm = std::sqrt(query_norm);

  // Best ω per set.  Σ centered = 0, so <q_c, s> = <q_c, s_c>, and the
  // segment norm comes from running sums of s and s².
  std::vector<double> best(store.size(), -2.0);
  auto scan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t index = begin; index < end; ++index) {
      const std::vector<double>& s = store.at(index).samples;
      if (s.size() <= n) continue;
      double s1 = 0.0;
      double s2 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        s1 += s[i];
        s2 += s[i] * s[i];
      }
      for (std::size_t beta = 0; beta < s.size() - n; ++beta) {
        double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
        const double* seg = s.data() + beta;
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
          d0 += centered[i] * seg[i];
          d1 += centered[i + 1] * seg[i + 1];
          d2 += centered[i + 2] * seg[i + 2];
          d3 += centered[i + 3] * seg[i + 3];
        }
        for (; i < n; ++i) d0 += centered[i] * seg[i];
        const double seg_norm2 = s2 - s1 * s1 / static_cast<double>(n);
        double omega = 0.0;
        if (seg_norm2 > 0.0 && query_norm > 0.0) {
          omega = std::clamp((d0 + d1 + d2 + d3) /
                                 (query_norm * std::sqrt(seg_norm2)),
                             -1.0, 1.0);
        }
        best[index] = std::max(best[index], omega);
        s1 += s[beta + n] - s[beta];
        s2 += s[beta + n] * s[beta + n] - s[beta] * s[beta];
      }
    }
  };
  const std::size_t workers = std::max<std::size_t>(1, threads);
  std::vector<std::thread> pool;
  const std::size_t chunk = (store.size() + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = std::min(store.size(), w * chunk);
    const std::size_t end = std::min(store.size(), begin + chunk);
    pool.emplace_back(scan, begin, end);
  }
  for (auto& thread : pool) thread.join();

  BruteForce result;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < best.size(); ++i) {
    result.best_omega = std::max(result.best_omega, best[i]);
    if (best[i] > config.delta) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return best[a] != best[b] ? best[a] > best[b] : a < b;
  });
  order.resize(std::min(order.size(), config.top_k));
  for (std::size_t i : order) result.top_sets.push_back(store.at(i).id);
  return result;
}

double recall(const BruteForce& reference,
              const std::vector<std::uint64_t>& returned_set_ids) {
  if (reference.top_sets.empty()) return 1.0;
  std::size_t found = 0;
  for (std::uint64_t id : reference.top_sets) {
    if (std::find(returned_set_ids.begin(), returned_set_ids.end(), id) !=
        returned_set_ids.end()) {
      ++found;
    }
  }
  return static_cast<double>(found) /
         static_cast<double>(reference.top_sets.size());
}

std::vector<std::string> check_upper_bound(const BruteForce& reference,
                                           double method_best_omega) {
  // The method's ω reaches the edge as a float: allow its rounding.
  if (method_best_omega > reference.best_omega + 1e-6) {
    return {format("Algorithm 1 best omega %.12f exceeds the exhaustive "
                   "best %.12f",
                   method_best_omega, reference.best_omega)};
  }
  return {};
}

std::vector<std::string> check_correlation_set(
    std::span<const double> query,
    const emap::net::CorrelationSetMessage& message, const StoreIndex& index,
    const emap::core::EmapConfig& config) {
  std::vector<Match> matches;
  for (const auto& e : message.entries) {
    matches.push_back({e.set_id, static_cast<double>(e.omega), e.beta,
                       e.anomalous != 0, e.class_tag});
  }
  std::vector<std::string> violations =
      check_matches(query, matches, index, config);
  for (std::size_t i = 0; i < message.entries.size(); ++i) {
    const auto& entry = message.entries[i];
    const emap::mdb::SignalSet* set = index.find(entry.set_id);
    if (set == nullptr) continue;  // reported above
    if (entry.samples.size() != set->samples.size()) {
      violations.push_back(format("entry %g carries %g samples, set has %g",
                                  static_cast<double>(i),
                                  static_cast<double>(entry.samples.size()),
                                  static_cast<double>(set->samples.size())));
      continue;
    }
    double peak = 0.0;
    for (double v : set->samples) peak = std::max(peak, std::abs(v));
    const double step = peak / 32767.0;
    for (std::size_t k = 0; k < entry.samples.size(); ++k) {
      if (std::abs(entry.samples[k] - set->samples[k]) > step) {
        violations.push_back(
            format("entry %g sample %g off the stored set by more than one "
                   "wire step (%.3g)",
                   static_cast<double>(i), static_cast<double>(k), step));
        break;
      }
    }
  }
  return violations;
}

std::vector<std::string> check_track_step(
    const emap::core::TrackStepResult& step,
    std::span<const double> filtered_window,
    const std::vector<emap::core::TrackedSignal>& survivors,
    const emap::core::EmapConfig& config, bool check_areas) {
  std::vector<std::string> violations;
  if (step.tracked_before != step.tracked_after + step.removed_dissimilar +
                                 step.removed_exhausted) {
    violations.push_back(
        format("count balance: before %g != after + removed %g",
               static_cast<double>(step.tracked_before),
               static_cast<double>(step.tracked_after +
                                   step.removed_dissimilar +
                                   step.removed_exhausted)));
  }
  if (step.tracked_after != survivors.size()) {
    violations.push_back(format("tracked_after %g but %g survivors",
                                static_cast<double>(step.tracked_after),
                                static_cast<double>(survivors.size())));
  }
  std::size_t anomalous = 0;
  for (const auto& s : survivors) anomalous += s.anomalous ? 1 : 0;
  const double share =
      survivors.empty() ? 0.0
                        : static_cast<double>(anomalous) /
                              static_cast<double>(survivors.size());
  if (std::abs(share - step.anomaly_probability) > 1e-12) {
    violations.push_back(format("P_A %.6f but the anomalous share is %.6f",
                                step.anomaly_probability, share));
  }
  if (check_areas) {
    const std::size_t window = config.window_length;
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      const auto& s = survivors[i];
      if (s.samples.size() < window || s.beta > s.samples.size() - window) {
        violations.push_back(format("survivor %g: offset %g outside the set",
                                    static_cast<double>(i),
                                    static_cast<double>(s.beta)));
        continue;
      }
      const double a = area(
          filtered_window,
          std::span<const double>(s.samples).subspan(s.beta, window));
      if (a > config.delta_area * (1.0 + 1e-9)) {
        violations.push_back(format("survivor %g: area %.3f above delta_A "
                                    "%.1f",
                                    static_cast<double>(i), a,
                                    config.delta_area));
      }
    }
  }
  return violations;
}

std::size_t binomial_lower_end(std::size_t n, double p, double tail) {
  double cdf = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    const double log_pmf =
        std::lgamma(static_cast<double>(n) + 1.0) -
        std::lgamma(static_cast<double>(k) + 1.0) -
        std::lgamma(static_cast<double>(n - k) + 1.0) +
        static_cast<double>(k) * std::log(p) +
        static_cast<double>(n - k) * std::log1p(-p);
    cdf += std::exp(log_pmf);
    if (cdf >= tail) return k;
  }
  return n;
}

std::vector<std::string> check_accuracy(const std::vector<ClassTally>& tally) {
  std::vector<std::string> violations;
  for (const ClassTally& t : tally) {
    if (t.sessions == 0) continue;
    const std::size_t lower =
        binomial_lower_end(t.sessions, t.paper_accuracy, kAccuracyTail);
    if (t.correct < lower) {
      violations.push_back(
          t.name + format(": accuracy %.3f below the interval's lower end "
                          "%.3f (paper %.2f)",
                          static_cast<double>(t.correct) /
                              static_cast<double>(t.sessions),
                          static_cast<double>(lower) /
                              static_cast<double>(t.sessions),
                          t.paper_accuracy));
    }
  }
  return violations;
}

}  // namespace perfbench::oracle
