// Shared output helpers for the paper-reproduction benches.
//
// Every bench prints a self-describing table: the paper artifact it
// regenerates, the sweep axis, and one column per configuration. Output
// is whitespace-aligned for humans and trivially machine-parsable.
//
// Benches also accept optional observability flags:
//   --trace=FILE          write a Chrome trace-event JSON (open in
//                         Perfetto), including message-lifecycle flow
//                         arrows
//   --json=FILE           write every emitted table plus the metrics
//                         snapshot, the per-stage message-lifecycle
//                         breakdowns, and (when sampling is on) the
//                         telemetry time series
//   --metrics-every=US    sample sim-time telemetry every US simulated
//                         microseconds (multi-node benches forward
//                         Session::sample_every() into ClusterConfig)
//   --timeseries=FILE     write the sampled time series on its own, as
//                         deterministic JSON (CI byte-compares this
//                         across thread counts)
// Wrap main's body in a Session; with no flag given the sinks stay
// detached and the stdout table output is byte-identical to a build
// without observability.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/topology.h"
#include "obs/flow.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace pg::bench {

/// Standard `--list` support: when argv contains --list, prints the
/// bench's table name plus the series/modes it produces (one per
/// indented line, machine-parsable) and returns true — main should then
/// exit 0 without running anything. Call before constructing Session.
/// Benches that forward Session::threads() to their workloads pass
/// `threads = true` so the listing advertises the flag; multi-node
/// benches that honour Session::topology() pass `topology = true`.
inline bool handle_list_flag(int argc, char** argv, const std::string& bench,
                             const std::vector<std::string>& series,
                             bool threads = false, bool topology = false) {
  bool found = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) found = true;
  }
  if (!found) return false;
  std::printf("%s\n", bench.c_str());
  for (const std::string& s : series) std::printf("  %s\n", s.c_str());
  if (threads) std::printf("  --threads=N (parallel event engine)\n");
  if (topology) {
    std::printf("  --topology=NAME (pair|ring|full-mesh|torus2d|fat-tree)\n");
  }
  if (threads || topology) {
    std::printf("  --metrics-every=US (sim-time telemetry sampling)\n");
  }
  return true;
}

inline void print_title(const std::string& title, const std::string& note) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("==============================================================\n");
}

class SeriesTable {
 public:
  SeriesTable(std::string axis, std::vector<std::string> columns)
      : axis_(std::move(axis)), columns_(std::move(columns)) {}

  void add_row(const std::string& x, const std::vector<double>& values) {
    rows_.push_back({x, values});
  }

  void print(const char* fmt = "%12.2f") const {
    std::printf("%-14s", axis_.c_str());
    for (const auto& c : columns_) std::printf(" %20s", c.c_str());
    std::printf("\n");
    for (const auto& row : rows_) {
      std::printf("%-14s", row.x.c_str());
      for (double v : row.values) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), fmt, v);
        std::printf(" %20s", buf);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  /// The same series as a JSON object:
  ///   {"axis":"size","columns":[...],"rows":[{"x":"64","values":[...]}]}
  void print_json(FILE* out) const {
    std::string s;
    s += "{\"axis\":";
    s += obs::json_string(axis_);
    s += ",\"columns\":[";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i) s += ',';
      s += obs::json_string(columns_[i]);
    }
    s += "],\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i) s += ',';
      s += "{\"x\":";
      s += obs::json_string(rows_[i].x);
      s += ",\"values\":[";
      for (std::size_t j = 0; j < rows_[i].values.size(); ++j) {
        if (j) s += ',';
        s += obs::json_double(rows_[i].values[j]);
      }
      s += "]}";
    }
    s += "]}";
    std::fputs(s.c_str(), out);
  }

 private:
  struct Row {
    std::string x;
    std::vector<double> values;
  };
  std::string axis_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

/// Scales `value` down by unit steps of 1024 while it divides evenly,
/// then renders it with the reached suffix ("", "K", "M", "G").
inline std::string format_scaled(std::uint64_t value) {
  static const char* const kSuffixes[] = {"", "K", "M"};
  std::size_t step = 0;
  while (step + 1 < sizeof(kSuffixes) / sizeof(kSuffixes[0]) &&
         value >= 1024 && value % 1024 == 0) {
    value /= 1024;
    ++step;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu%s",
                static_cast<unsigned long long>(value), kSuffixes[step]);
  return buf;
}

/// Human-readable byte size ("64", "4K", "1M").
inline std::string size_label(std::uint64_t bytes) {
  return format_scaled(bytes);
}

/// Per-bench observability session.
///
/// Parses --trace=FILE / --json=FILE from argv; when present, attaches a
/// TraceRecorder / MetricsRegistry for the duration of the bench and
/// writes the files in the destructor. `emit` both prints the table to
/// stdout (exactly like SeriesTable::print) and records it for the
/// --json output, so the text table and the JSON series always agree.
class Session {
 public:
  Session(int argc, char** argv)
      : wall_start_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--trace=", 8) == 0) {
        trace_path_ = a + 8;
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        json_path_ = a + 7;
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        threads_ = std::atoi(a + 10);
        if (threads_ < 1) {
          std::fprintf(stderr, "ignoring '%s': thread count must be >= 1\n",
                       a);
          threads_ = 1;
        }
      } else if (std::strncmp(a, "--metrics-every=", 16) == 0) {
        const long us = std::atol(a + 16);
        if (us < 1) {
          std::fprintf(stderr,
                       "ignoring '%s': sample interval must be >= 1 "
                       "(simulated microseconds)\n",
                       a);
        } else {
          sample_every_ = microseconds(us);
        }
      } else if (std::strncmp(a, "--timeseries=", 13) == 0) {
        timeseries_path_ = a + 13;
      } else if (std::strncmp(a, "--topology=", 11) == 0) {
        auto t = net::parse_topology(a + 11);
        if (t.is_ok()) {
          topology_ = *t;
          has_topology_ = true;
        } else {
          std::fprintf(stderr, "ignoring '%s': %s\n", a,
                       t.status().message().c_str());
        }
      } else if (std::strcmp(a, "--list") == 0) {
        // Handled by handle_list_flag before the Session exists.
      } else {
        std::fprintf(stderr,
                     "unknown argument '%s' (expected --list, --threads=N, "
                     "--topology=NAME, --metrics-every=US, --trace=FILE, "
                     "--timeseries=FILE or --json=FILE)\n",
                     a);
      }
    }
    if (!trace_path_.empty()) {
      recorder_ = new obs::TraceRecorder();
      obs::attach_recorder(recorder_);
    }
    if (!trace_path_.empty() || !json_path_.empty()) {
      metrics_ = new obs::MetricsRegistry();
      obs::attach_metrics(metrics_);
      flows_ = new obs::FlowTable();
      obs::attach_flows(flows_);
    }
    // Sampling needs the sink; an explicit --timeseries=FILE or any
    // sink-attaching flag combined with --metrics-every= enables it.
    if (!timeseries_path_.empty() ||
        (sample_every_ > 0 && (!trace_path_.empty() || !json_path_.empty()))) {
      timeseries_ = new obs::TimeSeries();
      obs::attach_timeseries(timeseries_);
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    if (recorder_) {
      if (FILE* f = std::fopen(trace_path_.c_str(), "w")) {
        recorder_->write_json(f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot write trace file '%s'\n",
                     trace_path_.c_str());
      }
      obs::attach_recorder(nullptr);
      delete recorder_;
    }
    if (!json_path_.empty()) {
      if (FILE* f = std::fopen(json_path_.c_str(), "w")) {
        std::fputs("{\"tables\":[", f);
        for (std::size_t i = 0; i < tables_.size(); ++i) {
          if (i) std::fputc(',', f);
          std::fputs("{\"name\":", f);
          const std::string name = obs::json_string(tables_[i].first);
          std::fputs(name.c_str(), f);
          std::fputs(",\"series\":", f);
          tables_[i].second.print_json(f);
          std::fputc('}', f);
        }
        std::fputs("],\"metrics\":", f);
        if (metrics_) {
          metrics_->write_json(f);
        } else {
          std::fputs("{}", f);
        }
        // Per-stage message-lifecycle breakdowns (one group per unit).
        std::fputs(",\"lifecycle\":", f);
        if (flows_) {
          std::string s = flows_->snapshot_json();
          while (!s.empty() && s.back() == '\n') s.pop_back();
          std::fputs(s.c_str(), f);
        } else {
          std::fputs("{\"flows\":[]}", f);
        }
        // Sim-time telemetry samples (--metrics-every=).
        std::fputs(",\"timeseries\":", f);
        if (timeseries_) {
          std::string s = timeseries_->snapshot_json();
          while (!s.empty() && s.back() == '\n') s.pop_back();
          std::fputs(s.c_str(), f);
        } else {
          std::fputs("{\"timeseries\":[]}", f);
        }
        // Host wall-clock and peak memory for the whole run: the cheap
        // always-on signals that the simulator itself has not regressed.
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall_start_)
                .count();
        std::fprintf(f, ",\"wall_clock_ms\":%.3f", wall_ms);
        // ru_maxrss is in KiB.
        struct rusage ru {};
        getrusage(RUSAGE_SELF, &ru);
        std::fprintf(f, ",\"peak_rss_mb\":%.1f",
                     static_cast<double>(ru.ru_maxrss) / 1024.0);
        std::fputs("}\n", f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot write json file '%s'\n",
                     json_path_.c_str());
      }
    }
    if (!timeseries_path_.empty() && timeseries_) {
      if (FILE* f = std::fopen(timeseries_path_.c_str(), "w")) {
        timeseries_->write_json(f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "cannot write timeseries file '%s'\n",
                     timeseries_path_.c_str());
      }
    }
    if (metrics_) {
      obs::attach_metrics(nullptr);
      delete metrics_;
    }
    if (flows_) {
      obs::attach_flows(nullptr);
      delete flows_;
    }
    if (timeseries_) {
      obs::attach_timeseries(nullptr);
      delete timeseries_;
    }
  }

  /// Prints the table to stdout and records a copy for --json.
  void emit(const std::string& name, const SeriesTable& table,
            const char* fmt = "%12.2f") {
    table.print(fmt);
    record(name, table);
  }

  /// Records a table for --json without printing (for benches with
  /// custom text output, e.g. the counter tables).
  void record(const std::string& name, const SeriesTable& table) {
    if (!json_path_.empty()) tables_.emplace_back(name, table);
  }

  /// Event-engine worker threads from --threads=N (default 1). Multi-
  /// node benches forward this into their workload configs; results —
  /// including trace / metrics / flow / time-series output, which runs
  /// shard-aware on the parallel engine — are byte-identical for any
  /// value.
  int threads() const { return threads_; }

  /// Telemetry sample interval from --metrics-every=US (0 = off).
  /// Multi-node benches forward this into ClusterConfig::sample_every.
  SimDuration sample_every() const { return sample_every_; }

  /// Wiring shape from --topology=NAME (parse_topology names). Benches
  /// that sweep multiple node counts pick counts valid for the shape.
  bool has_topology() const { return has_topology_; }
  net::Topology topology(net::Topology dflt) const {
    return has_topology_ ? topology_ : dflt;
  }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  std::string trace_path_;
  std::string json_path_;
  std::string timeseries_path_;
  SimDuration sample_every_ = 0;
  int threads_ = 1;
  net::Topology topology_ = net::Topology::kRing;
  bool has_topology_ = false;
  obs::TraceRecorder* recorder_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::FlowTable* flows_ = nullptr;
  obs::TimeSeries* timeseries_ = nullptr;
  std::vector<std::pair<std::string, SeriesTable>> tables_;
};

}  // namespace pg::bench
