#include "engine/serve.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "engine/pipeline.h"

namespace pitract {
namespace engine {

ServeReport ServeParallel(QueryEngine* engine,
                          std::span<const ServeWorkItem> workload,
                          const ServeOptions& options) {
  // The batch driver is a thin wrapper over the completion pipeline's
  // bulk face: warm items flow through the same atomic-cursor claiming as
  // before (no queue mutex in warm steady state), while cold misses park
  // on the preparer pool instead of blocking a worker on Π.
  PipelineOptions pipeline_options;
  pipeline_options.threads = options.threads;
  pipeline_options.preparers = options.preparers;
  pipeline_options.claim_batch = options.batch;
  pipeline_options.queue_depth = options.queue_depth;

  ServeReport report;
  const auto start = std::chrono::steady_clock::now();
  {
    ServePipeline pipeline(engine, pipeline_options);
    pipeline.SubmitWorkload(workload, options.repeat, options.deadline_ns);
    pipeline.Drain();
    report = pipeline.report();
  }
  const auto stop = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(stop - start).count();
  report.queries_per_second =
      report.wall_seconds > 0
          ? static_cast<double>(report.queries) / report.wall_seconds
          : 0;
  return report;
}

std::string ServeReport::ToJson() const {
  std::string json = "{";
  bool first = true;
  auto raw = [&json, &first](const char* name, const std::string& value) {
    if (!first) json.push_back(',');
    first = false;
    json.push_back('"');
    json.append(name);
    json.append("\":");
    json.append(value);
  };
  auto field = [&raw](const char* name, int64_t value) {
    raw(name, std::to_string(value));
  };
  auto dfield = [&raw](const char* name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    raw(name, buf);
  };
  field("batches", batches);
  field("queries", queries);
  field("pi_runs", pi_runs);
  field("cache_hits", cache_hits);
  field("kernel_batches", kernel_batches);
  field("answer_bytes_read", answer_bytes_read);
  field("errors", errors);
  dfield("wall_seconds", wall_seconds);
  dfield("queries_per_second", queries_per_second);
  field("prepare_work", prepare_cost.work);
  field("prepare_depth", prepare_cost.depth);
  field("answer_work", answer_cost.work);
  field("answer_depth", answer_cost.depth);
  field("threads", threads);
  field("deadline_expired", deadline_expired);
  field("shed", shed);
  field("queue_depth_max", queue_depth_max);
  field("preparer_busy_ns", preparer_busy_ns);
  field("preparers", preparers);
  field("pi_failures", pi_failures);
  field("pi_retries", pi_retries);
  field("quarantined", quarantined);
  field("upgrades", upgrades);
  field("upgrade_failures", upgrade_failures);
  json.push_back('}');
  return json;
}

}  // namespace engine
}  // namespace pitract
