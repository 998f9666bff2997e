// perfbench: the repository benchmark. See ../README.md.
//
//   perfbench --workload adapt_mlp|adapt_lr|serve_open --seed N --seconds S
//             --trace 0|1 [--trace-file PATH] [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the
// workload layer by layer under spans and reports the per-layer metrics.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluation.h"
#include "io/columnar.h"
#include "replay.h"
#include "rules.h"
#include "serve_loop.h"
#include "serving/model_server.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace crossmodal;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string work_dir = ".bench_build/perfbench_work";
};

struct Workload {
  const char* name;
  AdaptSpec spec;
  bool serve;  ///< Serving gets the measurement time.
};

constexpr Workload kWorkloads[] = {
    {"adapt_mlp", {1, 0.2, 3000, ModelKind::kMlp}, false},
    {"adapt_lr", {5, 0.2, 4000, ModelKind::kLogisticRegression}, false},
    {"serve_open", {1, 0.2, 3000, ModelKind::kMlp}, true},
};

/// Set-ups per serve_open run; setup_s and pipeline_s are their medians.
constexpr int kServeSetups = 5;
/// Set-up + Run() repetitions of an adapt run, at least.
constexpr size_t kMinAdaptRuns = 5;
/// Share of an adapt workload's seconds spent on Run() repetitions; the
/// rest serves the adapted model.
constexpr double kAdaptPipelineShare = 0.5;
constexpr double kReferenceWindowSeconds = 0.2;
/// Share of the serving time spent at the reference rate; the rest climbs
/// the ladder.
constexpr double kReferenceShare = 0.2;
constexpr double kLadderStepSeconds = 0.3;

/// The metrics and operation counts of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  void Attempt(size_t n = 1) { attempted_ += n; }
  /// A failed output check: fails the run.
  void Fail(const std::string& why, size_t n = 1) {
    Refuse(why, n);
    checks_failed_ += n;
  }
  /// A request the system refused (shed at the reference rate): a failed
  /// operation, but not a wrong output.
  void Refuse(const std::string& why, size_t n = 1) {
    failed_ += n;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  bool correct() const { return checks_failed_ == 0; }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), metric.first,
                  metric.second);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, const char*>> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t checks_failed_ = 0;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Seconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// The new-modality rows: every image entity of the corpus.
std::vector<EntityId> ImageIds(const Corpus& corpus) {
  std::vector<EntityId> ids;
  for (const auto* split : {&corpus.image_unlabeled,
                            &corpus.image_labeled_pool, &corpus.image_test}) {
    for (const Entity& e : *split) ids.push_back(e.id);
  }
  return ids;
}

std::vector<FeatureId> ServingFeatures(const AdaptContext& ctx) {
  auto selection = SelectFeatures(ctx.registry->schema(), ctx.config.features);
  CM_CHECK(selection.ok()) << selection.status();
  return selection->image_model_features;
}

/// A served deployment: the adapted model over a store of its rows.
struct Deployment {
  std::unique_ptr<FeatureStore> read_back;  ///< Set when served from disk.
  ServeTarget target;
  std::unique_ptr<OpenLoop> loop;
};

/// Writes the pipeline's store as columnar, reads it back (spans
/// io/write_columnar and io/read_columnar) and returns the read-back copy.
Result<std::unique_ptr<FeatureStore>> RoundTripStore(
    const FeatureStore& store, const std::string& path, Tracer* tracer,
    Report* report) {
  {
    ScopedSpan span(tracer, "io/write_columnar");
    CM_RETURN_IF_ERROR(WriteFeatureStore(store, path, StoreFormat::kColumnar));
    const double write_ms = span.Stop();
    if (report != nullptr) report->Add("io.write_columnar_ms", write_ms, "ms");
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  ScopedSpan span(tracer, "io/read_columnar");
  CM_ASSIGN_OR_RETURN(FeatureStore copy,
                      ReadFeatureStore(&store.schema(), path,
                                       StoreFormat::kColumnar));
  const double read_ms = span.Stop();
  std::filesystem::remove(path, ec);
  if (report != nullptr) {
    report->Add("io.read_columnar_ms", read_ms, "ms");
    report->Add("io.store_bytes", static_cast<double>(bytes), "bytes");
  }
  return std::make_unique<FeatureStore>(std::move(copy));
}

/// Served test-split scores must equal direct scoring; returns the test
/// metrics of the served scores. Requests go out in chunks the shard
/// queues can hold, so admission control never sheds them.
EvalResult ServedTestEval(const AdaptContext& ctx, Deployment* d,
                          Report* report) {
  constexpr size_t kChunk = kQueueCapacity / 2;
  const std::vector<Entity>& test = ctx.corpus.image_test;
  std::vector<double> scores;
  for (size_t begin = 0; begin < test.size(); begin += kChunk) {
    std::vector<EntityId> ids;
    std::vector<const FeatureVector*> rows;
    for (size_t i = begin; i < std::min(test.size(), begin + kChunk); ++i) {
      ids.push_back(test[i].id);
      rows.push_back(*d->target.store->Get(test[i].id));
    }
    const auto served = d->loop->server().ScoreAll(ids, rows);
    for (size_t i = 0; i < served.size(); ++i) {
      report->Attempt();
      if (!served[i].ok()) {
        report->Fail("test request failed: " + served[i].status().ToString());
      } else if (served[i]->score != d->target.expected.at(ids[i])) {
        report->Fail("served test score differs from direct scoring");
      }
      scores.push_back(served[i].ok() ? served[i]->score : 0.0);
    }
  }
  return EvaluateScores(scores, test);
}

void CountRung(const RungResult& rung, bool shed_fails, Report* report) {
  std::fprintf(stderr,
               "rung %9.0f/s: achieved %9.0f/s  p50 %7.0fus  p%g %7.0fus  "
               "late p99 %6.0fus  shed %zu  failed %zu%s\n",
               rung.offered_rps, rung.achieved_rps, rung.p50_us,
               rung.tail_q * 100, rung.tail_us, rung.gen_late_p99_us,
               rung.shed, rung.failed,
               rung.backlog_grew ? "  backlog grew" : "");
  report->Attempt(rung.sent);
  if (rung.failed > 0) {
    report->Fail("served score differs from direct scoring or errored",
                 rung.failed);
  }
  if (shed_fails && rung.shed > 0) {
    report->Refuse("requests shed at the reference rate", rung.shed);
  }
}

/// Windows at the reference rate for `seconds` (at least one); reports
/// serve_p50_us, the median of the windows' p50. The tail at this rate is
/// reported by the traced run only (serving.reference_p90_us / _p99_us):
/// on a 4-core virtual machine it follows the host's CPU steal, and the
/// p99 of consecutive windows of one run reads from ~40 us to several ms,
/// so no bound of at most 25% holds it.
void MeasureReferenceRate(OpenLoop* loop, double seconds, Report* report) {
  const int64_t start = NowNs();
  std::vector<double> p50;
  do {
    const RungResult rung = loop->Send(kReferenceRps, kReferenceWindowSeconds);
    CountRung(rung, /*shed_fails=*/true, report);
    p50.push_back(rung.p50_us);
  } while (Seconds(start) < seconds);
  report->Add("serve_p50_us", Median(p50), "us");
}

/// Ladder climbs for `seconds` (at least one); reports serve_max_rps, the
/// median over climbs. The first climb starts at the reference rate and
/// steps 12 rungs (x2.01) at a time; later ones step 4 rungs (x1.26) from
/// 4 rungs below the highest rung the first climb met. Another climb
/// starts only while one as long as the last still fits.
void MeasureMaxRate(OpenLoop* loop, double seconds, Report* report) {
  const int64_t start = NowNs();
  std::vector<double> max_rps;
  double climb_s = 0.0;
  int start_rung = kReferenceRung;
  int stride = 12;
  do {
    const int64_t climb_start = NowNs();
    const std::vector<RungResult> rungs =
        ClimbLadder(loop, kLadderStepSeconds, start_rung, stride);
    for (const RungResult& rung : rungs) CountRung(rung, false, report);
    max_rps.push_back(MaxRateMeetingLimit(rungs, kP99LimitUs));
    std::fprintf(stderr, "climb from rung %d: %.0f/s\n", start_rung,
                 max_rps.back());
    if (max_rps.size() == 1) {
      for (const RungResult& rung : rungs) {
        if (RungMeetsLimit(rung, kP99LimitUs)) {
          start_rung = std::max(start_rung, rung.rung - 4);
        }
      }
      stride = 4;
    }
    climb_s = Seconds(climb_start);
  } while (Seconds(start) + climb_s < seconds);
  report->Add("serve_max_rps", Median(max_rps), "1/s");
}

/// Deploys `run`'s model over `store` (`owned` keeps a read-back store
/// alive) and opens the loop that serves it.
Result<std::unique_ptr<Deployment>> Deploy(const AdaptContext& ctx,
                                           RunOutcome* run,
                                           const FeatureStore* store,
                                           std::unique_ptr<FeatureStore> owned,
                                           uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  d->read_back = std::move(owned);
  std::shared_ptr<const CrossModalModel> model(std::move(run->result.model));
  CM_ASSIGN_OR_RETURN(d->target, MakeServeTarget(store, std::move(model),
                                                 ServingFeatures(ctx),
                                                 ImageIds(ctx.corpus)));
  CM_ASSIGN_OR_RETURN(d->loop, OpenLoop::Create(&d->target, seed));
  return d;
}

/// --trace 0: the end-to-end metrics.
int RunUntraced(const Args& args, const Workload& w, Report* report) {
  auto fail = [report](const Status& status) {
    report->Fail(status.ToString());
    return 1;
  };
  Tracer off(false);
  std::vector<double> setup_s, pipeline_s;
  AdaptContext ctx;
  RunOutcome run;
  std::unique_ptr<Deployment> deployment;
  // A fresh context of the workload seed, then one Run() on it. On
  // adapt_* setup_s times the context alone; on serve_open it also times
  // the Run(), the columnar round trip and the deployment.
  auto setup_and_run = [&]() -> Status {
    // Release the last set-up's deployment, run and context (in that
    // order: each points into the next) before timing a new one.
    deployment.reset();
    run = RunOutcome();
    ctx = AdaptContext();
    const int64_t start = NowNs();
    CM_ASSIGN_OR_RETURN(ctx, SetupAdapt(w.spec, args.seed, &off));
    if (!w.serve) setup_s.push_back(Seconds(start));
    CM_ASSIGN_OR_RETURN(run, RunPipeline(ctx));
    pipeline_s.push_back(run.seconds);
    if (w.serve) {
      CM_ASSIGN_OR_RETURN(auto copy,
                          RoundTripStore(run.pipeline->store(),
                                         args.work_dir + "/serve_store.cmc",
                                         &off, nullptr));
      const FeatureStore* store = copy.get();
      CM_ASSIGN_OR_RETURN(deployment, Deploy(ctx, &run, store,
                                             std::move(copy), args.seed));
      setup_s.push_back(Seconds(start));
    }
    std::fprintf(stderr, "setup %.4f s  Run() %.4f s\n", setup_s.back(),
                 run.seconds);
    return Status::OK();
  };

  double test_roc_auc = 0.0;
  double peak_rss_mb = 0.0;
  double serve_budget = args.seconds;
  if (w.serve) {
    for (int i = 0; i < kServeSetups; ++i) {
      const Status status = setup_and_run();
      if (!status.ok()) return fail(status);
    }
    test_roc_auc = ServedTestEval(ctx, deployment.get(), report).roc_auc;
  } else {
    // Set-ups and Run()s alternate, so both sample the whole first part of
    // the run; every Run() must reproduce the first one's scores.
    const int64_t start = NowNs();
    std::vector<double> first_scores;
    while (pipeline_s.size() < kMinAdaptRuns ||
           Seconds(start) < kAdaptPipelineShare * args.seconds) {
      report->Attempt();
      const Status status = setup_and_run();
      if (!status.ok()) return fail(status);
      if (first_scores.empty()) first_scores = run.test_scores;
      if (run.test_scores != first_scores) {
        report->Fail("Run() is not deterministic across repetitions");
      }
      // The adaptation's memory after a fixed number of repetitions: how
      // many more follow depends on the host's speed.
      if (pipeline_s.size() == kMinAdaptRuns) peak_rss_mb = PeakRssMb();
    }
    test_roc_auc = run.test_roc_auc;
    serve_budget = std::max(1.0, args.seconds - Seconds(start));
    auto deployed =
        Deploy(ctx, &run, &run.pipeline->store(), nullptr, args.seed);
    if (!deployed.ok()) return fail(deployed.status());
    deployment = std::move(deployed).value();
  }
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("pipeline_s", Median(pipeline_s), "s");
  report->Add("test_roc_auc", test_roc_auc, "ratio");
  MeasureReferenceRate(deployment->loop.get(),
                       kReferenceShare * serve_budget, report);
  // serve_open's memory holds the read-back store and the serving tier
  // after a fixed number of requests; the climbs that follow send as many
  // as the host sustains.
  if (w.serve) peak_rss_mb = PeakRssMb();
  MeasureMaxRate(deployment->loop.get(), (1 - kReferenceShare) * serve_budget,
                 report);
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  return 0;
}

/// --trace 1: the per-layer metrics from a traced replay.
int RunTraced(const Args& args, const Workload& w, Report* report) {
  Tracer tracer(true);
  auto fail = [report](const Status& status) {
    report->Fail(status.ToString());
    return 1;
  };
  auto setup = SetupAdapt(w.spec, args.seed, &tracer);
  if (!setup.ok()) return fail(setup.status());
  const AdaptContext ctx = std::move(setup).value();
  for (const SpanRecord& span : tracer.spans()) {
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    if (span.name == "synth/corpus") report->Add("synth.corpus_ms", ms, "ms");
    if (span.name == "resources/registry") {
      report->Add("resources.registry_ms", ms, "ms");
    }
  }

  // One untraced Run() is the reference of the replays' output checks.
  // Then 4-thread replays with tracing off and on alternate (which goes
  // first alternates too) for half the run's seconds: the gap between the
  // two is the tracing overhead.
  auto adapted = RunPipeline(ctx);
  report->Attempt();
  if (!adapted.ok()) return fail(adapted.status());
  RunOutcome run = std::move(adapted).value();
  Tracer off(false);
  std::vector<double> untraced_ms, traced_ms;
  std::vector<ReplayOutcome> four, four_untraced;
  const int64_t start = NowNs();
  while (four.size() < 2 || Seconds(start) < 0.5 * args.seconds) {
    const bool traced_first = four.size() % 2 == 1;
    for (const bool traced : {traced_first, !traced_first}) {
      const int64_t replay_start = NowNs();
      auto replay = Replay(ctx, kPipelineThreads, run, traced ? &tracer : &off);
      if (!replay.ok()) return fail(replay.status());
      (traced ? traced_ms : untraced_ms).push_back(Seconds(replay_start) * 1e3);
      (traced ? four : four_untraced).push_back(std::move(replay).value());
    }
  }
  auto one = Replay(ctx, 1, run, &tracer);
  if (!one.ok()) return fail(one.status());
  for (const auto* replays : {&four, &four_untraced}) {
    for (const ReplayOutcome& replay : *replays) {
      report->Attempt();
      for (const std::string& failure : CheckReplay(ctx, run, replay, *one)) {
        report->Fail(failure);
      }
    }
  }

  auto four_ms = [&four](const std::string& call) {
    std::vector<double> values;
    for (const ReplayOutcome& r : four) values.push_back(r.ms.at(call));
    return Median(values);
  };
  // Span "<layer>/<call>" reports as "<layer>.<call>_ms" and, for the
  // parallel paths, "<layer>.<call>_speedup" (1-thread / 4-thread time).
  auto metric_name = [](std::string call, const char* suffix) {
    call[call.find('/')] = '.';
    return call + suffix;
  };
  for (const auto& [call, ms] : four[0].ms) {
    report->Add(metric_name(call, "_ms"), four_ms(call), "ms");
  }
  for (const char* call : {"dataflow/feature_gen", "graph/knn_build",
                           "graph/propagate", "fusion/train"}) {
    report->Add(metric_name(call, "_speedup"),
                one->ms.at(call) / four_ms(call), "ratio");
  }
  for (const auto& [name, value] : four[0].counts) {
    report->Add(name, value, "count");
  }
  report->Add("labeling.coverage", four[0].coverage, "ratio");
  report->Add("graph.avg_degree", four[0].avg_degree, "count");

  auto member_ms = MemberTrainMs(ctx, run, &tracer);
  if (!member_ms.ok()) return fail(member_ms.status());
  report->Add("ml.member_train_ms", *member_ms, "ms");
  report->Add("ml.members", ctx.config.model.ensemble_size, "count");
  report->Add("core.test_auprc", run.test_auprc, "ratio");
  report->Add("trace.overhead_pct",
              100.0 * (Median(traced_ms) - Median(untraced_ms)) /
                  Median(untraced_ms),
              "%");

  // Self time per layer, over the 4-thread replays.
  for (const auto& [layer, ms] : tracer.SelfMsByLayer("replay/4t")) {
    report->Add(layer + ".self_ms", ms / static_cast<double>(four.size()),
                "ms");
  }

  // ---- io + serving: persist the adapted store and serve the read-back.
  auto copy = RoundTripStore(run.pipeline->store(),
                             args.work_dir + "/traced_store.cmc", &tracer,
                             report);
  if (!copy.ok()) return fail(copy.status());
  const FeatureStore* store = copy->get();
  auto deployed =
      Deploy(ctx, &run, store, std::move(copy).value(), args.seed);
  if (!deployed.ok()) return fail(deployed.status());
  Deployment& d = **deployed;

  {
    // FeatureStore::Get over a uniform id stream.
    const std::vector<EntityId>& ids = d.target.ids;
    Rng rng(DeriveSeed(args.seed, "row_get"));
    std::vector<EntityId> stream(200000);
    for (EntityId& id : stream) id = ids[rng.UniformInt(ids.size())];
    size_t found = 0;
    ScopedSpan span(&tracer, "features/row_get");
    for (EntityId id : stream) found += store->Get(id).ok() ? 1 : 0;
    const double ms = span.Stop();
    if (found != stream.size()) report->Fail("row lookup missed");
    report->Add("features.row_get_ns", ms * 1e6 / stream.size(), "ns");
  }
  {
    std::vector<const FeatureVector*> rows;
    for (EntityId id : d.target.ids) rows.push_back(*store->Get(id));
    auto server = ModelServer::Create(d.target.model, &store->schema(),
                                      d.target.serving_features);
    if (!server.ok()) return fail(server.status());
    std::vector<double> per_row_us;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(&tracer, "serving/direct_score");
      server->ScoreBatch(rows);
      per_row_us.push_back(span.Stop() * 1e3 / rows.size());
    }
    report->Add("serving.direct_score_us", Median(per_row_us), "us");
  }
  RungSamples samples;
  RungResult rung;
  {
    ScopedSpan span(&tracer, "serving/reference_rate");
    rung = d.loop->Send(kReferenceRps, 1.0, &samples);
  }
  CountRung(rung, /*shed_fails=*/true, report);
  const ShardedStats stats = d.loop->server().stats();
  std::vector<double> shard_p50;
  double high_water = 0.0;
  for (const ShardStats& s : stats.shards) {
    shard_p50.push_back(s.latency.p50_us);
    high_water = std::max(high_water, static_cast<double>(s.queue_high_water));
  }
  const double score_p50 = Median(shard_p50);
  report->Add("serving.shard_score_p50_us", score_p50, "us");
  report->Add("serving.queue_wait_p50_us",
              std::max(0.0, Median(samples.tier_us) - score_p50), "us");
  report->Add("serving.mean_batch",
              stats.batches() == 0 ? 0.0
                                   : static_cast<double>(stats.served()) /
                                         static_cast<double>(stats.batches()),
              "count");
  report->Add("serving.queue_high_water", high_water, "count");
  report->Add("serving.shed", static_cast<double>(stats.shed()), "count");
  report->Add("serving.gen_late_p99_us", rung.gen_late_p99_us, "us");
  report->Add("serving.reference_p90_us", rung.p90_us, "us");
  report->Add("serving.reference_p99_us", rung.tail_us, "us");

  report->Add("trace.spans", static_cast<double>(tracer.spans().size()),
              "count");
  if (!args.trace_file.empty() && !tracer.WriteChromeTrace(args.trace_file)) {
    report->Fail("cannot write " + args.trace_file);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr || args.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload adapt_mlp|adapt_lr|serve_open "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  Report report;
  const int code = args.trace ? RunTraced(args, *workload, &report)
                              : RunUntraced(args, *workload, &report);
  report.Print();
  return code != 0 || !report.correct() ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
