#include "telemetry/telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "common/buffer_pool.h"
#include "common/file_io.h"
#include "common/logging.h"

namespace aiacc::telemetry {
namespace {

/// Impl accessors used inside init: construct the singletons WITHOUT
/// re-entering InitFromEnvOnce (the public Global()s call init, so routing
/// init through them would re-enter the once-flag and deadlock).
RuntimeTracer& GlobalTracerImpl() {
  static RuntimeTracer* tracer = new RuntimeTracer();  // leaked: threads may
  return *tracer;  // record during static teardown
}

MetricsRegistry& GlobalRegistryImpl() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

EnvOptions& MutableGlobalEnvOptions() {
  static EnvOptions* options = new EnvOptions();
  return *options;
}

void AtExitDump() {
  const EnvOptions& options = MutableGlobalEnvOptions();
  if (!options.trace_path.empty()) {
    const Status st = GlobalTracerImpl().WriteTo(options.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry: trace write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (!options.metrics_dump.empty()) {
    const Status st =
        DumpMetrics(GlobalRegistryImpl().Snapshot(), options.metrics_dump);
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry: metrics dump failed: %s\n",
                   st.ToString().c_str());
    }
  }
}

}  // namespace

EnvOptions ParseEnvOptions(
    const std::function<const char*(const char*)>& getenv_fn) {
  EnvOptions options;
  if (const char* v = getenv_fn("AIACC_TRACE"); v != nullptr && *v != '\0') {
    options.trace_path = v;
  }
  if (const char* v = getenv_fn("AIACC_TRACE_LEVEL");
      v != nullptr && *v != '\0') {
    const std::string level = v;
    if (level == "verbose" || level == "2") {
      options.trace_level = TraceLevel::kVerbose;
    } else if (level == "off" || level == "0") {
      options.trace_level = TraceLevel::kOff;
    } else {
      options.trace_level = TraceLevel::kPhase;  // "phase", "1", anything else
    }
  }
  if (const char* v = getenv_fn("AIACC_METRICS_DUMP");
      v != nullptr && *v != '\0') {
    options.metrics_dump = v;
  }
  if (const char* v = getenv_fn("AIACC_METRICS_PERIOD_MS");
      v != nullptr && *v != '\0') {
    options.metrics_period_ms = std::atoi(v);
    if (options.metrics_period_ms < 0) options.metrics_period_ms = 0;
  }
  return options;
}

EnvOptions ParseEnvOptions() {
  return ParseEnvOptions(
      [](const char* name) -> const char* { return std::getenv(name); });
}

void InitFromEnvOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    EnvOptions& options = MutableGlobalEnvOptions();
    options = ParseEnvOptions();

    // One metrics surface: the shared BufferPool reports through the
    // registry via callbacks (the pool lives below telemetry in the layer
    // graph, so it cannot push; the registry pulls its atomic stats).
    MetricsRegistry& registry = GlobalRegistryImpl();
    registry.AttachCallback("pool.hits", [] {
      return common::BufferPool::Global().stats().hits;
    });
    registry.AttachCallback("pool.misses", [] {
      return common::BufferPool::Global().stats().misses;
    });
    registry.AttachCallback("pool.returns", [] {
      return common::BufferPool::Global().stats().returns;
    });
    registry.AttachCallback("pool.discarded", [] {
      return common::BufferPool::Global().stats().discarded;
    });

    if (!options.trace_path.empty() &&
        options.trace_level != TraceLevel::kOff) {
      GlobalTracerImpl().Enable(options.trace_level);
    }
    if (!options.trace_path.empty() || !options.metrics_dump.empty()) {
      std::atexit(AtExitDump);
    }
  });
}

const EnvOptions& GlobalEnvOptions() {
  InitFromEnvOnce();
  return MutableGlobalEnvOptions();
}

int MetricsDumpPeriodMs() { return GlobalEnvOptions().metrics_period_ms; }

Status DumpMetrics(const RegistrySnapshot& snapshot, const std::string& dest) {
  if (dest == "stderr") {
    const std::string table = snapshot.ToTable();
    std::fputs(table.c_str(), stderr);
    return Status::Ok();
  }
  return common::WriteFileAtomic(dest, snapshot.ToJson());
}

RuntimeTracer& RuntimeTracer::Global() {
  RuntimeTracer& tracer = GlobalTracerImpl();
  InitFromEnvOnce();
  return tracer;
}

MetricsRegistry& MetricsRegistry::Global() {
  MetricsRegistry& registry = GlobalRegistryImpl();
  InitFromEnvOnce();
  return registry;
}

}  // namespace aiacc::telemetry
