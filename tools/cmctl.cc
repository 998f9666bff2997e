// cmctl — command-line driver for the crossmodal library.
//
// Subcommands:
//   generate  --task N [--scale F] --out DIR     synthesize a task corpus's
//                                                feature store + schema TSVs
//   curate    --task N [--scale F] --out DIR     run steps A+B, write weak
//                                                labels + schema/store
//   run       --task N [--scale F] [--out DIR]   full pipeline + evaluation
//                                                (writes the test PR curve
//                                                when --out is given)
//   audit     --task N [--scale F]               resource-quality audit
//   serve     --task N [--scale F]               train, then drive synthetic
//                                                client traffic through the
//                                                sharded serving tier and
//                                                print the shard table
//   convert   --schema TSV --in STORE --out STORE  re-encode a feature store
//                                                between TSV and the binary
//                                                columnar format (the input
//                                                format is sniffed; the
//                                                output format comes from
//                                                --to or the --out extension;
//                                                --fault-plan takes io:
//                                                entries only)
//
// generate/curate take --store-format tsv|columnar to pick the on-disk
// encoding of the feature store they emit (features.tsv vs features.cmc).
// --cache-capacity N installs the LRU response cache in front of every
// resource service and prints its hit/miss totals.
//
// Everything is deterministic; --seed overrides the task preset's seed.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "io/artifacts.h"
#include "io/columnar.h"
#include "io/io_faults.h"
#include "io/store_format.h"
#include "resources/fault_injection.h"
#include "resources/validation.h"
#include "serving/batch_server.h"
#include "synth/corpus_generator.h"
#include "util/logging.h"
#include "util/parse_number.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace crossmodal;

namespace {

struct Args {
  std::string command;
  int task = 1;
  double scale = 0.25;
  uint64_t seed = 0;  // 0 = task preset default
  std::string out;
  FaultPlan fault_plan;  ///< Empty = healthy services.
  StoreFormat store_format = StoreFormat::kTsv;
  size_t cache_capacity = 0;  ///< 0 = no response cache.
  // convert subcommand:
  std::string schema_path;
  std::string in;
  std::string to;  ///< Output format override; empty = sniff --out extension.
  // serve subcommand:
  size_t shards = 4;
  size_t clients = 4;
  size_t requests = 2000;
  size_t max_batch = 16;
  uint64_t batch_window_us = 200;
  // Holds the whole default stream on one shard, so the default run never
  // sheds and its fault counts are reproducible.
  size_t queue_capacity = 2048;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: cmctl <generate|curate|run|audit|serve> --task N "
               "[--scale F] [--seed S] [--out DIR] [--fault-plan SPEC]\n"
               "       [--store-format tsv|columnar] [--cache-capacity N]\n"
               "       serve also takes [--shards N] [--clients N] "
               "[--requests N] [--max-batch N] [--batch-window-us U] "
               "[--queue-capacity N]\n"
               "       (default --queue-capacity 2048 holds the default 2000 "
               "requests on every shard: nothing is shed)\n"
               "       cmctl convert --schema SCHEMA.tsv --in STORE --out "
               "STORE [--to tsv|columnar] [--fault-plan io:...]\n");
}

/// Parses `value` with the checked helper `parse`, or fails with a usage
/// error naming the flag (no atoi: malformed values must not silently
/// become 0).
template <typename T, typename ParseFn>
bool ParseFlagValue(const std::string& flag, const std::string& value,
                    ParseFn parse, T* out) {
  auto parsed = parse(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "cmctl: bad value for %s: %s\n", flag.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "cmctl: flag %s is missing its value\n",
                   flag.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    if (flag == "--task") {
      if (!ParseFlagValue(flag, value, ParseInt64, &args->task)) return false;
    } else if (flag == "--scale") {
      if (!ParseFlagValue(flag, value, ParseFiniteDouble, &args->scale)) {
        return false;
      }
    } else if (flag == "--seed") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->seed)) return false;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--schema") {
      args->schema_path = value;
    } else if (flag == "--in") {
      args->in = value;
    } else if (flag == "--to") {
      args->to = value;
    } else if (flag == "--store-format") {
      auto format = ParseStoreFormat(value);
      if (!format.ok()) {
        std::fprintf(stderr, "cmctl: bad --store-format: %s\n",
                     format.status().ToString().c_str());
        return false;
      }
      args->store_format = *format;
    } else if (flag == "--cache-capacity") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->cache_capacity)) {
        return false;
      }
    } else if (flag == "--fault-plan") {
      auto plan = FaultPlan::Parse(value);
      if (!plan.ok()) {
        std::fprintf(stderr, "cmctl: bad --fault-plan: %s\n",
                     plan.status().ToString().c_str());
        return false;
      }
      args->fault_plan = std::move(*plan);
    } else if (flag == "--shards") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->shards)) {
        return false;
      }
    } else if (flag == "--clients") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->clients)) {
        return false;
      }
    } else if (flag == "--requests") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->requests)) {
        return false;
      }
    } else if (flag == "--max-batch") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->max_batch)) {
        return false;
      }
    } else if (flag == "--batch-window-us") {
      if (!ParseFlagValue(flag, value, ParseUint64,
                          &args->batch_window_us)) {
        return false;
      }
    } else if (flag == "--queue-capacity") {
      if (!ParseFlagValue(flag, value, ParseUint64, &args->queue_capacity)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return args->task >= 1 && args->task <= 5 && args->scale > 0.0;
}

struct World {
  TaskSpec task;
  WorldConfig config;
  std::unique_ptr<CorpusGenerator> generator;
  Corpus corpus;
  std::unique_ptr<ResourceRegistry> registry;
  /// Armed when the fault plan carries an `io:` entry; file IO under this
  /// world then sees injected open failures / torn writes / corruption.
  std::unique_ptr<ScopedIoFaultInjection> io_faults;
};

/// Arms the process-global file-IO injector when `plan` carries an `io:`
/// entry (null otherwise) and announces a non-empty plan. Every command
/// that takes --fault-plan calls this, so an `io:` entry always reaches
/// the files the command reads and writes.
std::unique_ptr<ScopedIoFaultInjection> ArmFaultPlan(const FaultPlan& plan) {
  if (plan.empty()) return nullptr;
  std::unique_ptr<ScopedIoFaultInjection> io_faults;
  if (plan.ExactEntry(kIoFaultService) != nullptr) {
    io_faults = std::make_unique<ScopedIoFaultInjection>(
        IoFaultConfigFromPlan(plan));
  }
  std::printf("fault plan active (%zu directive%s, seed %llu)\n",
              plan.entries.size(), plan.entries.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(plan.seed));
  return io_faults;
}

World MakeWorld(const Args& args) {
  World world;
  world.task = TaskSpec::CT(args.task).Scaled(args.scale);
  if (args.seed != 0) world.task.seed = args.seed;
  world.generator =
      std::make_unique<CorpusGenerator>(world.config, world.task);
  world.corpus = world.generator->Generate();
  auto registry = BuildModerationRegistry(*world.generator, world.task.seed);
  CM_CHECK(registry.ok()) << registry.status();
  world.registry =
      std::make_unique<ResourceRegistry>(std::move(registry).value());
  // The registry rejects the reserved targets: `serving:` entries are
  // consumed by the ShardedServer fault hook in `serve`, and `io:` entries
  // arm the process-global file-IO injector.
  const FaultPlan registry_plan = args.fault_plan.WithoutReserved();
  if (!registry_plan.empty()) {
    CM_CHECK_OK(world.registry->InstallFaultLayer(registry_plan));
  }
  world.io_faults = ArmFaultPlan(args.fault_plan);
  if (args.cache_capacity > 0) {
    // Installed after the fault layer so the cache is outermost: a cached
    // value short-circuits injected faults and retries entirely.
    CM_CHECK_OK(world.registry->InstallResponseCache(args.cache_capacity));
  }
  return world;
}

/// Prints response-cache totals when a cache is installed (generate/curate
/// read them off the registry; run gets them through PipelineReport too).
void PrintCacheStats(const ResourceRegistry& registry) {
  const ResponseCache* cache = registry.response_cache();
  if (cache == nullptr) return;
  const ResponseCacheStats stats = cache->Stats();
  const uint64_t lookups = stats.hits + stats.misses;
  std::printf("response cache: %llu/%llu hits (%.1f%%), %llu evictions, "
              "%zu/%zu entries\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(lookups),
              lookups == 0 ? 0.0
                           : 100.0 * static_cast<double>(stats.hits) /
                                 static_cast<double>(lookups),
              static_cast<unsigned long long>(stats.evictions), stats.entries,
              stats.capacity);
}

/// Prints the per-service degradation table when the fault layer injected
/// anything (healthy runs stay quiet — natural abstains are not outages).
void PrintDegradation(const PipelineReport& report) {
  uint64_t injected = 0;
  for (const ServiceHealth& h : report.service_health) {
    injected += h.transient_failures + h.timeouts + h.permanent_failures;
  }
  if (injected == 0 && report.services_degraded == 0) return;
  std::printf("degradation: %zu/%zu services degraded, %.1f%% slots missing "
              "(%.1f%% to outages), LF coverage %.2f\n",
              report.services_degraded, report.service_health.size(),
              100.0 * report.feature_missing_fraction,
              100.0 * report.feature_degraded_fraction, report.lf_coverage);
  TablePrinter table({"Service", "Requests", "Retries", "Transient",
                      "Timeouts", "Permanent", "Degraded", "Abstains"});
  for (const ServiceHealth& h : report.service_health) {
    if (h.transient_failures + h.timeouts + h.permanent_failures + h.retries +
            h.degraded_misses ==
        0) {
      continue;
    }
    table.AddRow({h.service, std::to_string(h.requests),
                  std::to_string(h.retries),
                  std::to_string(h.transient_failures),
                  std::to_string(h.timeouts),
                  std::to_string(h.permanent_failures),
                  std::to_string(h.degraded_misses),
                  std::to_string(h.abstains_served)});
  }
  table.Print(std::cout);
}

PipelineConfig MakeConfig(const World& world) {
  PipelineConfig config;
  config.seed = DeriveSeed(world.task.seed, "cmctl");
  config.model.ensemble_size = 3;
  config.curation.label_model.fixed_class_balance = world.task.pos_rate;
  return config;
}

/// Persists the pipeline's feature store under `dir` in `format`
/// (features.tsv or features.cmc) and returns the path written.
std::string WriteStoreArtifact(const CrossModalPipeline& pipeline,
                               StoreFormat format, const std::string& dir) {
  const std::string path =
      dir + "/features." + std::string(StoreFormatExtension(format));
  CM_CHECK_OK(WriteFeatureStore(pipeline.store(), path, format));
  return path;
}

int CmdGenerate(const Args& args) {
  const World world = MakeWorld(args);
  std::filesystem::create_directories(args.out);
  CrossModalPipeline pipeline(world.registry.get(), &world.corpus,
                              MakeConfig(world));
  CM_CHECK_OK(pipeline.GenerateFeatureSpace());
  CM_CHECK_OK(WriteSchemaTsv(world.registry->schema(),
                             args.out + "/schema.tsv"));
  const std::string store_path =
      WriteStoreArtifact(pipeline, args.store_format, args.out);
  std::printf("wrote %zu-feature schema and %zu rows to %s (%s)\n",
              world.registry->schema().size(), pipeline.store().size(),
              store_path.c_str(),
              StoreFormatName(args.store_format));
  PrintCacheStats(*world.registry);
  return 0;
}

int CmdCurate(const Args& args) {
  const World world = MakeWorld(args);
  std::filesystem::create_directories(args.out);
  CrossModalPipeline pipeline(world.registry.get(), &world.corpus,
                              MakeConfig(world));
  auto curation = pipeline.CurateTrainingData();
  CM_CHECK(curation.ok()) << curation.status();
  CM_CHECK_OK(WriteSchemaTsv(world.registry->schema(),
                             args.out + "/schema.tsv"));
  (void)WriteStoreArtifact(pipeline, args.store_format, args.out);
  CM_CHECK_OK(WriteWeakLabelsTsv(curation->weak_labels,
                                 args.out + "/weak_labels.tsv"));
  std::printf("curated %zu weak labels with %zu LFs (coverage %.2f); "
              "artifacts in %s\n",
              curation->weak_labels.size(), curation->lfs.size(),
              curation->lf_total_coverage, args.out.c_str());
  PrintCacheStats(*world.registry);
  return 0;
}

int CmdRun(const Args& args) {
  const World world = MakeWorld(args);
  CrossModalPipeline pipeline(world.registry.get(), &world.corpus,
                              MakeConfig(world));
  auto result = pipeline.Run();
  CM_CHECK(result.ok()) << result.status();
  const auto scores = pipeline.ScoreTestSet(*result->model);
  const EvalResult eval = EvaluateScores(scores, world.corpus.image_test);
  std::printf("%s: AUPRC %.3f  ROC-AUC %.3f  (n=%zu, %zu positives)\n",
              world.task.name.c_str(), eval.auprc, eval.roc_auc, eval.n,
              eval.n_pos);
  std::printf("stages: feature-gen %.2fs, curation %.2fs, training %.2fs\n",
              result->report.feature_gen_seconds,
              result->report.curation_seconds,
              result->report.training_seconds);
  PrintDegradation(result->report);
  PrintCacheStats(*world.registry);
  if (!args.out.empty()) {
    std::filesystem::create_directories(args.out);
    std::vector<int> labels;
    for (const Entity& e : world.corpus.image_test) {
      labels.push_back(e.label == 1 ? 1 : 0);
    }
    CM_CHECK_OK(WritePrCurveCsv(PrecisionRecallCurve(scores, labels),
                                args.out + "/pr_curve.csv"));
    CM_CHECK_OK(WriteWeakLabelsTsv(result->curation.weak_labels,
                                   args.out + "/weak_labels.tsv"));
    std::printf("wrote pr_curve.csv and weak_labels.tsv to %s\n",
                args.out.c_str());
  }
  return 0;
}

int CmdAudit(const Args& args) {
  const World world = MakeWorld(args);
  CrossModalPipeline pipeline(world.registry.get(), &world.corpus,
                              MakeConfig(world));
  CM_CHECK_OK(pipeline.GenerateFeatureSpace());
  std::vector<EntityId> old_ids, new_ids;
  std::vector<int> old_labels;
  for (const Entity& e : world.corpus.text_labeled) {
    old_ids.push_back(e.id);
    old_labels.push_back(e.label == 1 ? 1 : 0);
  }
  for (const Entity& e : world.corpus.image_unlabeled) {
    new_ids.push_back(e.id);
  }
  auto reports = ValidateResources(*world.registry, pipeline.store(),
                                   old_ids, old_labels, new_ids);
  CM_CHECK(reports.ok()) << reports.status();
  TablePrinter table({"Service", "Cov(old)", "Cov(new)", "Best item F1",
                      "Marginal shift", "Suspect"});
  for (const auto& r : *reports) {
    table.AddRow({r.name, TablePrinter::Num(r.coverage_old, 2),
                  TablePrinter::Num(r.coverage_new, 2),
                  TablePrinter::Num(r.best_item_f1, 3),
                  TablePrinter::Num(r.marginal_shift, 2),
                  r.suspect ? "YES" : "no"});
  }
  table.Print(std::cout);
  PrintCacheStats(*world.registry);
  return 0;
}

int CmdServe(const Args& args) {
  const World world = MakeWorld(args);
  CrossModalPipeline pipeline(world.registry.get(), &world.corpus,
                              MakeConfig(world));
  auto result = pipeline.Run();
  CM_CHECK(result.ok()) << result.status();

  std::vector<EntityId> ids;
  std::vector<const FeatureVector*> rows;
  for (const Entity& e : world.corpus.image_test) {
    auto row = pipeline.store().Get(e.id);
    if (row.ok()) {
      ids.push_back(e.id);
      rows.push_back(*row);
    }
  }
  CM_CHECK(!rows.empty());

  ShardedServingOptions options;
  options.num_shards = args.shards;
  options.max_batch = args.max_batch;
  options.batch_window_us = args.batch_window_us;
  options.queue_capacity = args.queue_capacity;
  options.route_seed = DeriveSeed(world.task.seed, "serve");
  const std::shared_ptr<const CrossModalModel> model(
      std::move(result->model));
  auto server = ShardedServer::Create(model, &world.registry->schema(),
                                      pipeline.selection().image_model_features,
                                      options, args.fault_plan);
  CM_CHECK(server.ok()) << server.status();

  // Synthetic traffic: each client pipelines its slice of the request
  // stream (submit everything, then wait), so batches actually fill and
  // backpressure is visible when the queues are undersized.
  const size_t n_clients = std::max<size_t>(1, args.clients);
  std::atomic<uint64_t> served{0}, faulted{0};
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Ticket> tickets;
      for (size_t i = c; i < args.requests; i += n_clients) {
        const size_t k = i % rows.size();
        tickets.push_back(server->Submit(ids[k], *rows[k]));
      }
      for (Ticket& ticket : tickets) {
        const Result<ServedScore> r = ticket.Wait();
        // kUnavailable is a shed (admission or fault), counted per shard
        // in ShardedStats.
        if (r.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() != StatusCode::kUnavailable) {
          faulted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = wall.ElapsedSeconds();

  const ShardedStats stats = server->stats();
  TablePrinter table({"Shard", "Submitted", "Served", "Shed", "FaultShed",
                      "Batches", "MeanBatch", "QHighWater", "p50us", "p95us",
                      "p100us"});
  for (const ShardStats& s : stats.shards) {
    uint64_t batched = 0;
    for (size_t b = 0; b < s.batch_size_hist.size(); ++b) {
      batched += s.batch_size_hist[b] * (b + 1);
    }
    const double mean_batch =
        s.batches == 0 ? 0.0
                       : static_cast<double>(batched) /
                             static_cast<double>(s.batches);
    table.AddRow({std::to_string(s.shard), std::to_string(s.submitted),
                  std::to_string(s.served), std::to_string(s.shed),
                  std::to_string(s.fault_shed), std::to_string(s.batches),
                  TablePrinter::Num(mean_batch, 2),
                  std::to_string(s.queue_high_water),
                  TablePrinter::Num(s.latency.p50_us, 1),
                  TablePrinter::Num(s.latency.p95_us, 1),
                  TablePrinter::Num(s.latency.p100_us, 1)});
  }
  table.Print(std::cout);
  std::printf("%zu requests over %zu clients x %zu shards in %.3fs "
              "(%.0f req/s): %llu served, %llu shed, %llu fault-shed, "
              "%llu faulted\n",
              args.requests, n_clients, server->num_shards(), seconds,
              seconds > 0 ? static_cast<double>(args.requests) / seconds : 0.0,
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(stats.shed()),
              static_cast<unsigned long long>(stats.fault_shed()),
              static_cast<unsigned long long>(faulted.load()));
  const ServiceHealth health = server->fault_health();
  if (health.attempts > 0) {
    std::printf("serving fault hook: %llu attempts, %llu transient, "
                "%llu timeouts, %llu retries, %.1fms backoff accounted\n",
                static_cast<unsigned long long>(health.attempts),
                static_cast<unsigned long long>(health.transient_failures),
                static_cast<unsigned long long>(health.timeouts),
                static_cast<unsigned long long>(health.retries),
                static_cast<double>(health.backoff_us) / 1000.0);
  }
  return 0;
}

int CmdConvert(const Args& args) {
  if (args.schema_path.empty() || args.in.empty() || args.out.empty()) {
    PrintUsage();
    return 2;
  }
  // convert touches no service and no server: only `io:` entries apply.
  for (const FaultPlan::Entry& entry : args.fault_plan.entries) {
    if (entry.service != kIoFaultService) {
      std::fprintf(stderr,
                   "cmctl: convert takes only io: fault-plan entries, got "
                   "%s:\n",
                   entry.service.c_str());
      return 2;
    }
  }
  const std::unique_ptr<ScopedIoFaultInjection> io_faults =
      ArmFaultPlan(args.fault_plan);
  auto schema = ReadSchemaTsv(args.schema_path);
  if (!schema.ok()) {
    std::fprintf(stderr, "cmctl: cannot read --schema: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }
  auto in_format = DetectStoreFormat(args.in);
  if (!in_format.ok()) {
    std::fprintf(stderr, "cmctl: cannot sniff --in format: %s\n",
                 in_format.status().ToString().c_str());
    return 1;
  }
  StoreFormat out_format;
  if (!args.to.empty()) {
    auto parsed = ParseStoreFormat(args.to);
    if (!parsed.ok()) {
      std::fprintf(stderr, "cmctl: bad --to: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    out_format = *parsed;
  } else {
    // No --to: take the format from the output extension, defaulting the
    // unrecognized case to "the other one" so a bare path still converts.
    const std::string& out = args.out;
    if (out.size() >= 4 && out.compare(out.size() - 4, 4, ".cmc") == 0) {
      out_format = StoreFormat::kColumnar;
    } else if (out.size() >= 4 && out.compare(out.size() - 4, 4, ".tsv") == 0) {
      out_format = StoreFormat::kTsv;
    } else {
      out_format = *in_format == StoreFormat::kTsv ? StoreFormat::kColumnar
                                                   : StoreFormat::kTsv;
    }
  }
  auto store = ReadFeatureStore(&*schema, args.in, *in_format);
  if (!store.ok()) {
    std::fprintf(stderr, "cmctl: cannot read --in: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  const Status written = WriteFeatureStore(*store, args.out, out_format);
  if (!written.ok()) {
    std::fprintf(stderr, "cmctl: cannot write --out: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  std::printf("converted %zu rows x %zu features: %s (%s) -> %s (%s)\n",
              store->size(), schema->size(), args.in.c_str(),
              StoreFormatName(*in_format), args.out.c_str(),
              StoreFormatName(out_format));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (args.command == "generate") {
    if (args.out.empty()) {
      PrintUsage();
      return 2;
    }
    return CmdGenerate(args);
  }
  if (args.command == "curate") {
    if (args.out.empty()) {
      PrintUsage();
      return 2;
    }
    return CmdCurate(args);
  }
  if (args.command == "run") return CmdRun(args);
  if (args.command == "audit") return CmdAudit(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "convert") return CmdConvert(args);
  PrintUsage();
  return 2;
}
