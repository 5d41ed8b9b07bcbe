// CLI plumbing for the observability layer: every example and bench
// harness accepts the same flag trio through one RAII helper.
//
//   --trace=FILE          record a Chrome trace (open in Perfetto or
//                         chrome://tracing) of everything the process runs
//   --metrics             print the MetricsRegistry summary at exit
//   --metrics-json=FILE   also write the metrics as JSON
//
// Usage in a main():
//   const io::ArgParser args(argc, argv);
//   obs::ObsSession obs(args);            // installs tracer/registry
//   ... run the workload ...
//   // ~ObsSession (or an explicit finish()) uninstalls, writes the
//   // trace file and prints/writes the metrics report.
// With none of the flags present the session is inert and the whole
// program runs the null-observability fast path.
#pragma once

#include <memory>
#include <string>

#include "io/args.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pedsim::obs {

/// The --help lines for the shared flags (kept in one place so every
/// binary's help text stays in sync).
const char* cli_help();

class ObsSession {
  public:
    explicit ObsSession(const io::ArgParser& args);
    ~ObsSession();
    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /// Uninstall, write the trace file, print/write the metrics report.
    /// Idempotent; the destructor calls it.
    void finish();

  private:
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<MetricsRegistry> registry_;
    std::string trace_path_;
    std::string metrics_json_path_;
    bool print_summary_ = false;
    bool finished_ = false;
};

}  // namespace pedsim::obs
