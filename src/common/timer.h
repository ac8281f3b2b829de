#ifndef CDI_COMMON_TIMER_H_
#define CDI_COMMON_TIMER_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace cdi {

/// Simple monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the watch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accounts for latency of *simulated* external services (LLM queries,
/// knowledge-graph lookups, data-lake scans).
///
/// The paper's end-to-end runtimes (645 s FLIGHTS / 304 s COVID-19) are
/// dominated by remote GPT-3 and DBpedia calls. Our substitutes are
/// in-process, so to reproduce the runtime *shape* the pipeline charges each
/// simulated call its nominal real-world latency here, separately from the
/// actual wall clock.
class LatencyMeter {
 public:
  /// A run of consecutive identical charges, as a logging meter records
  /// them.
  struct ChargeRun {
    std::string service;
    double seconds_per_call = 0.0;
    int64_t calls = 0;
  };

  /// A meter that also logs every charge, in order (see log()).
  static LatencyMeter Logging() {
    LatencyMeter meter;
    meter.logging_ = true;
    return meter;
  }

  /// Charges one call of `service` at `seconds_per_call`.
  void Charge(const std::string& service, double seconds_per_call) {
    auto& e = entries_[service];
    e.calls += 1;
    e.seconds += seconds_per_call;
    if (!logging_) return;
    if (!log_.empty() && log_.back().service == service &&
        log_.back().seconds_per_call == seconds_per_call) {
      ++log_.back().calls;
    } else {
      log_.push_back({service, seconds_per_call, 1});
    }
  }

  /// Charges every call of `log` in order, one addition per call, so the
  /// totals match bit for bit what the logged calls would have charged
  /// here. Adding each run's total at once would not: floating-point sums
  /// depend on grouping.
  void Replay(const std::vector<ChargeRun>& log) {
    for (const ChargeRun& run : log) {
      auto& e = entries_[run.service];
      for (int64_t i = 0; i < run.calls; ++i) {
        e.calls += 1;
        e.seconds += run.seconds_per_call;
      }
    }
  }

  /// The charges of a Logging() meter, in order; empty otherwise.
  const std::vector<ChargeRun>& log() const { return log_; }

  /// Total simulated seconds across all services.
  double TotalSeconds() const {
    double t = 0;
    for (const auto& [name, e] : entries_) t += e.seconds;
    return t;
  }

  /// Number of calls charged to `service` (0 if never charged).
  int64_t Calls(const std::string& service) const {
    auto it = entries_.find(service);
    return it == entries_.end() ? 0 : it->second.calls;
  }

  /// Simulated seconds charged to `service`.
  double Seconds(const std::string& service) const {
    auto it = entries_.find(service);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }

  struct Entry {
    int64_t calls = 0;
    double seconds = 0.0;
  };

  /// Per-service accounting, keyed by service name.
  const std::map<std::string, Entry>& entries() const { return entries_; }

  void Clear() { entries_.clear(); }

 private:
  std::map<std::string, Entry> entries_;
  bool logging_ = false;
  std::vector<ChargeRun> log_;
};

}  // namespace cdi

#endif  // CDI_COMMON_TIMER_H_
