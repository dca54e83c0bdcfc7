// liod_perfbench: the repository's measured (wall-clock) benchmark harness.
//
// One process hosts a 4-shard ShardedEngine on real files (DeviceKind::kFile
// under a fresh per-run directory) and drives it closed-loop with 4 client
// threads, either through an in-process KvServer on a unix socket (served_*
// workloads) or by calling ShardedEngine::Execute directly (embedded_*). Each
// run: generate the dataset and per-client tapes from --seed, set up the
// engine (timed, several times), warm up, measure for --seconds, flush, check
// every answer against an oracle, and -- for served_update_wal -- shut the
// server down and recover a fresh engine from the same WAL/checkpoint files to
// prove no acknowledged write was lost.
//
//   liod_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--spans-out FILE] [--keys N]
//                  [--corrupt-oracle]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced pass
// and a traced pass (MetricRegistry + TraceRecorder attached, harness spans
// recorded) of --seconds/2 each and prints the per-layer metrics. Human-
// readable lines go to stdout first; the last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}. Exit status: 0 when every
// answer checked out, 1 on a wrong answer or lost write, 2 on bad usage, 3 on
// a setup/transport failure. --corrupt-oracle perturbs the expected answers
// (the smoke test uses it to prove the oracle can fail).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "core/op_breakdown.h"
#include "engine/sharded_engine.h"
#include "kv/execute.h"
#include "kv/request.h"
#include "recovery/durable_store.h"
#include "server/kv_client.h"
#include "server/kv_server.h"
#include "spans.h"
#include "storage/block_device.h"
#include "storage/io_stats.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

using namespace liod;
using perfbench::NowNs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kBlockSize = 4096;
constexpr std::uint32_t kScanLength = 100;
constexpr double kZipfTheta = 0.99;
/// Every kScanSampleEvery-th scan (up to kMaxSampledScans per client) keeps
/// its full result for the containment check; the others keep
/// count/first/last only (a 10 s scan window returns ~1 GB of records, too
/// much to hold).
constexpr std::size_t kScanSampleEvery = 32;
constexpr std::size_t kMaxSampledScans = 4096;  ///< per client
/// served_update_wal: per-shard staging area and group-commit window.
constexpr std::size_t kUpdateBufferBlocks = 64;
constexpr std::size_t kGroupCommitWindow = 8;
/// Index replay (traced pass): ops per client, and a wall-clock cap.
constexpr std::size_t kReplayOpsPerClient = 5000;
constexpr double kReplayMaxS = 1.0;
/// Setups per untraced run; setup_s is their median.
constexpr std::size_t kSetupReps = 9;

struct WorkloadDef {
  const char* name;
  const char* index;          ///< factory name of every shard
  std::size_t keys;           ///< bulkloaded records
  std::size_t budget_blocks;  ///< shared buffer budget across all shards
  WorkloadType type;
  bool served;                ///< through KvServer + KvClient on a unix socket
  std::size_t clients;        ///< closed-loop client threads
  std::size_t batch;          ///< ops per Call / Execute
  bool wal;                   ///< update buffer + background merge + group-commit WAL
  std::size_t tape_ops;       ///< total ops across all tapes (tapes cycle)
};

// A MetricRegistry is attached to the served workloads even untraced, as
// under `liod_cli serve --metrics-listen`.
// served_lookup: 1M-key btree (~19 MiB) under a 32 MiB budget.
// served_update_wal: same index and budget, YCSB-A, batch 8, WAL on.
// embedded_scan_pgm: 2M-key PGM (~31 MiB) under a 4 MiB budget.
const WorkloadDef kWorkloads[] = {
    {"served_lookup", "btree", 1'000'000, 8192, WorkloadType::kYcsbC, true, 4, 1, false,
     1'000'000},
    {"served_update_wal", "btree", 1'000'000, 8192, WorkloadType::kYcsbA, true, 4, 8, true,
     3'000'000},
    {"embedded_scan_pgm", "pgm", 2'000'000, 1024, WorkloadType::kYcsbE, false, 4, 1, false,
     1'000'000},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
  std::size_t keys = 0;  ///< 0 = the workload's committed size
  bool corrupt_oracle = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-oracle") {
      args->corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args->trace = std::strcmp(v, "1") == 0;
    } else if (a == "--work-dir") {
      args->work_dir = v;
    } else if (a == "--spans-out") {
      args->spans_out = v;
    } else if (a == "--keys") {
      args->keys = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  if (args->work_dir.empty() || args->seconds <= 0) {
    std::fprintf(stderr, "--work-dir and --seconds > 0 are required\n");
    return false;
  }
  return true;
}

double Seconds(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank quantile of an ascending vector (0 when empty).
double Quantile(const std::vector<float>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --------------------------------------------------------------------------
// Inputs

/// served_update_wal rewrites every update's payload to (key + 1) ^ tag, with
/// tag naming the (client, tape position) that wrote it -- unique per write
/// and never key + 1 -- so a read-back value identifies its writer in O(1).
constexpr int kTagPosBits = 40;
std::uint64_t WriteTag(std::size_t client, std::size_t pos) {
  return (static_cast<std::uint64_t>(client + 1) << kTagPosBits) | (pos + 1);
}

struct Tapes {
  std::vector<Record> bulk;                      ///< sorted, payload = key + 1
  std::vector<std::vector<kv::Request>> ops;     ///< one tape per client
};

Tapes MakeTapes(const WorkloadDef& def, std::size_t keys, std::size_t tape_ops,
                std::uint64_t seed) {
  WorkloadSpec spec;
  spec.type = def.type;
  spec.bulk_keys = keys;
  spec.operations = tape_ops;
  spec.scan_length = kScanLength;
  spec.seed = seed + 1;
  spec.zipf_theta = kZipfTheta;
  const std::size_t dataset_keys = WorkloadGrowsDataset(def.type) ? keys + tape_ops : keys;
  ConcurrentWorkload cw =
      BuildConcurrentWorkload(MakeDataset("fb", dataset_keys, seed), spec, def.clients);

  Tapes tapes;
  tapes.bulk = std::move(cw.bulk);
  tapes.ops.resize(def.clients);
  for (std::size_t c = 0; c < def.clients; ++c) {
    std::vector<kv::Request>& tape = tapes.ops[c];
    tape.reserve(cw.thread_ops[c].size());
    for (const WorkloadOp& op : cw.thread_ops[c]) {
      kv::Request req = ToRequest(op, cw.scan_length);
      if (def.wal && req.kind == kv::OpKind::kInsert) {
        req.payload = (req.key + 1) ^ WriteTag(c, tape.size());
      }
      tape.push_back(req);
    }
  }
  return tapes;
}

// --------------------------------------------------------------------------
// The system under test

/// One engine (+ server) and everything it points at. Members are declared
/// so that destruction runs server -> engine -> store -> telemetry.
struct Stack {
  std::string dir;
  std::string socket_path;
  std::unique_ptr<MetricRegistry> metrics;
  std::unique_ptr<TraceRecorder> trace;
  std::unique_ptr<DurableStore> store;
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<server::KvServer> server;
};

/// Opens shard i's WAL/checkpoint files under `dir` (truncating them for a
/// fresh engine, reopening them for recovery).
Status OpenStore(const std::string& dir, bool truncate, MetricRegistry* metrics,
                 std::unique_ptr<DurableStore>* out) {
  auto store = std::make_unique<DurableStore>(kBlockSize);
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::string base = dir + "/shard" + std::to_string(i);
    auto wal = std::make_unique<FileBlockDevice>(base + ".wal", kBlockSize, truncate, metrics);
    auto ckpt =
        std::make_unique<FileBlockDevice>(base + ".ckpt", kBlockSize, truncate, metrics);
    if (!wal->ok() || !ckpt->ok()) return Status::IoError("cannot open " + base + ".{wal,ckpt}");
    store->InstallSlot(i, std::make_unique<DurableSlot>(std::move(wal), std::move(ckpt)));
  }
  *out = std::move(store);
  return Status::Ok();
}

EngineOptions MakeEngineOptions(const WorkloadDef& def, const Stack& stack,
                                const std::string& device_dir) {
  EngineOptions eo;
  eo.index_name = def.index;
  eo.num_shards = kShards;
  eo.shard_lock_mode = ShardLockMode::kShared;
  eo.share_buffers_across_shards = true;
  eo.index.shared_buffer_budget_blocks = def.budget_blocks;
  eo.index.buffer_write_back = true;
  eo.index.device = DeviceKind::kFile;
  eo.index.device_path = device_dir;
  eo.index.metrics = stack.metrics.get();
  eo.index.trace = stack.trace.get();
  if (def.wal) {
    eo.index.update_buffer_blocks = kUpdateBufferBlocks;
    eo.index.update_buffer_merge_mode = MergeMode::kBackground;
    eo.index.durability = DurabilityPolicy::kGroupCommit;
    eo.index.wal_group_window = kGroupCommitWindow;
    eo.durable_store = stack.store.get();
  }
  return eo;
}

/// Builds a stack under `dir`. The timed part -- engine construction,
/// Bulkload, DropCaches and KvServer::Start -- is returned in *setup_s;
/// directory creation and telemetry objects are outside it.
Status BuildStack(const WorkloadDef& def, const std::vector<Record>& bulk,
                  const std::string& dir, bool registry, bool trace, SpanLog* log,
                  Stack* stack, double* setup_s) {
  std::error_code ec;
  std::filesystem::create_directories(dir + "/base", ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  stack->dir = dir;
  if (registry) stack->metrics = std::make_unique<MetricRegistry>();
  if (trace) stack->trace = std::make_unique<TraceRecorder>();

  const std::uint64_t setup_id = log->ReserveId();
  const std::uint64_t t0 = NowNs();
  if (def.wal) {
    if (Status s = OpenStore(dir, /*truncate=*/true, stack->metrics.get(), &stack->store);
        !s.ok()) {
      return s;
    }
  }
  stack->engine =
      std::make_unique<ShardedEngine>(MakeEngineOptions(def, *stack, dir + "/base"));
  {
    ScopedSpan span(log, "ShardedEngine::Bulkload", setup_id);
    if (Status s = stack->engine->Bulkload(bulk); !s.ok()) return s;
  }
  {
    ScopedSpan span(log, "ShardedEngine::DropCaches", setup_id);
    if (Status s = stack->engine->DropCaches(); !s.ok()) return s;
  }
  if (def.served) {
    server::ServerOptions so;
    stack->socket_path = dir + "/kv.sock";
    so.unix_path = stack->socket_path;
    so.workers = 4;
    so.metrics = stack->metrics.get();
    so.trace = stack->trace.get();
    stack->server = std::make_unique<server::KvServer>(stack->engine.get(), so);
    ScopedSpan span(log, "KvServer::Start", setup_id);
    if (Status s = stack->server->Start(); !s.ok()) return s;
  }
  const std::uint64_t t1 = NowNs();
  log->AddWithId(setup_id, "setup", t0, t1);
  *setup_s = Seconds(t0, t1);
  return Status::Ok();
}

/// Shuts the server down (drain + checkpoint), destroys the stack and
/// removes its directory.
Status TearDown(Stack* stack) {
  Status status;
  if (stack->server != nullptr) status = stack->server->Shutdown();
  stack->server.reset();
  stack->engine.reset();
  stack->store.reset();
  stack->trace.reset();
  stack->metrics.reset();
  std::error_code ec;
  if (!stack->dir.empty()) std::filesystem::remove_all(stack->dir, ec);
  return status;
}

// --------------------------------------------------------------------------
// Closed-loop clients

enum Phase : int { kWarmup = 0, kWindow = 1, kStop = 2 };

struct ScanAnswer {
  Key first;
  Key last;
  std::uint32_t count;
};
struct SampledScan {
  std::uint64_t scan;  ///< ordinal among this client's scans
  std::vector<Record> records;
};
struct FailedOp {
  std::uint64_t op;
  Status::Code code;
};

/// Append-only log whose storage is allocated and touched before the run
/// starts: its resident size is then the same in every run, however many ops
/// the run completes (past the preallocation it grows like a vector).
template <typename T>
class PreallocatedLog {
 public:
  void Preallocate(std::size_t n) { v_.resize(n); }
  void Add(const T& x) {
    if (n_ < v_.size()) {
      v_[n_] = x;
    } else {
      v_.push_back(x);
    }
    ++n_;
  }
  std::size_t size() const { return n_; }
  const T& operator[](std::size_t i) const { return v_[i]; }
  std::size_t bytes() const { return v_.capacity() * sizeof(T); }

 private:
  std::vector<T> v_;
  std::size_t n_ = 0;
};

/// Everything one client thread observed. Answers of every op (warm-up and
/// window) are kept for the oracle, which runs after the clients stop. They
/// are kept in tape order without op numbers -- the tape says which op each
/// answer belongs to -- so the harness's own memory stays small.
struct ClientLog {
  explicit ClientLog(std::uint32_t thread, bool spans) : spans(thread, spans) {}
  SpanLog spans;
  Status status;
  PreallocatedLog<float> latency_us;        ///< one per window Call / Execute
  PreallocatedLog<std::uint32_t> start_ms;  ///< its start, ms after the window opened
  std::uint64_t ops = 0;                ///< ops executed, warm-up included
  std::uint64_t window_first_op = 0;
  std::uint64_t window_end_op = 0;
  bool in_window = false;
  std::uint64_t window_calls = 0;
  std::uint64_t window_ops = 0;
  std::uint64_t window_failed = 0;  ///< code other than kOk (no op expects kNotFound)
  std::uint64_t window_writes = 0;
  std::uint64_t window_scan_records = 0;
  std::uint64_t last_window_end_ns = 0;
  PreallocatedLog<Payload> lookup_payloads;  ///< every lookup, 0 when not found
  PreallocatedLog<ScanAnswer> scans;         ///< every scan
  std::vector<SampledScan> sampled_scans;
  std::vector<FailedOp> failed_ops;      ///< every op answered other than kOk

  /// Resident bytes of the answer logs.
  std::size_t Bytes() const {
    std::size_t bytes = latency_us.bytes() + start_ms.bytes() + lookup_payloads.bytes() +
                        scans.bytes() + failed_ops.capacity() * sizeof(FailedOp);
    for (const SampledScan& s : sampled_scans) bytes += s.records.capacity() * sizeof(Record);
    return bytes;
  }
};

void RunClient(const WorkloadDef& def, Stack* stack, const std::vector<kv::Request>& tape,
               std::size_t client, std::atomic<int>* ready, const std::atomic<int>* phase,
               const std::atomic<std::uint64_t>* window_start_ns, ClientLog* log) {
  server::KvClient kc;
  if (def.served) log->status = kc.ConnectUnix(stack->socket_path);
  ready->fetch_add(1, std::memory_order_release);
  if (!log->status.ok()) return;

  // Room for four passes over the tape, so that the harness's own memory
  // does not depend on how many ops a run completes (see peak_rss_mib).
  const std::size_t n = tape.size();
  log->latency_us.Preallocate(4 * n / def.batch);
  log->start_ms.Preallocate(4 * n / def.batch);
  if (def.type == WorkloadType::kYcsbE) {
    log->scans.Preallocate(4 * n);
  } else {
    log->lookup_payloads.Preallocate(4 * n);
  }
  log->spans.Reserve();
  kv::RequestBatch batch;
  std::uint64_t op = 0;
  std::uint64_t call = 0;
  for (;;) {
    const int ph = phase->load(std::memory_order_acquire);
    if (ph == kStop) break;
    batch.requests.clear();
    for (std::size_t k = 0; k < def.batch; ++k) batch.requests.push_back(tape[(op + k) % n]);

    const std::uint64_t t0 = NowNs();
    if (def.served) {
      log->status = kc.Call(batch.requests, &batch.responses);
      if (!log->status.ok()) return;  // transport failure: the run is void
    } else {
      // Per-op outcomes are in the response codes; the batch status only
      // repeats the first of them.
      (void)stack->engine->Execute(batch);
    }
    const std::uint64_t t1 = NowNs();

    const bool in_window = ph == kWindow;
    if (in_window) {
      if (!log->in_window) {
        log->in_window = true;
        log->window_first_op = op;
      }
      log->latency_us.Add(static_cast<float>(static_cast<double>(t1 - t0) / 1e3));
      log->start_ms.Add(static_cast<std::uint32_t>(
          (t0 - std::min(t0, window_start_ns->load(std::memory_order_relaxed))) / 1'000'000));
      log->last_window_end_ns = t1;
      ++log->window_calls;
      log->spans.Add(def.served ? "KvClient::Call" : "ShardedEngine::Execute", t0, t1, 0,
                     (static_cast<std::uint64_t>(client + 1) << 40) | call);
    }
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      const kv::Request& req = batch.requests[i];
      kv::Response& resp = batch.responses[i];
      const bool ok = resp.code == Status::Code::kOk;
      if (!ok) log->failed_ops.push_back({op + i, resp.code});
      if (in_window) {
        ++log->window_ops;
        if (!ok) ++log->window_failed;
        if (kv::OpKindIsWrite(req.kind)) ++log->window_writes;
        log->window_scan_records += resp.records.size();
      }
      if (req.kind == kv::OpKind::kLookup) {
        log->lookup_payloads.Add(ok && resp.found ? resp.payload : 0);
      } else if (req.kind == kv::OpKind::kScan) {
        const bool empty = resp.records.empty();
        log->scans.Add({empty ? 0 : resp.records.front().key,
                              empty ? 0 : resp.records.back().key,
                              static_cast<std::uint32_t>(resp.records.size())});
        if (log->scans.size() % kScanSampleEvery == 1 &&
            log->sampled_scans.size() < kMaxSampledScans) {
          log->sampled_scans.push_back({log->scans.size() - 1, std::move(resp.records)});
        }
      }
    }
    op += batch.requests.size();
    if (in_window) log->window_end_op = op;
    ++call;
  }
  log->ops = op;
}

/// Point-in-time copy of every counter the metrics are computed from.
struct Snap {
  IoStatsSnapshot io;
  IndexStats stats;
  std::array<OpBreakdown::PhaseTotals, kNumOpPhases> phases{};
  MetricsSnapshot registry;
  server::ServerCounters server;
  std::uint64_t trace_us = 0;
};

Snap TakeSnap(Stack& stack) {
  Snap s;
  s.io = stack.engine->MergedIo();
  s.stats = stack.engine->MergedStats();
  for (std::size_t i = 0; i < stack.engine->num_shards(); ++i) {
    OpBreakdown& b = stack.engine->shard(i)->breakdown();
    for (int p = 0; p < kNumOpPhases; ++p) {
      const OpBreakdown::PhaseTotals t = b.totals(static_cast<OpPhase>(p));
      s.phases[p].cpu_us += t.cpu_us;
      s.phases[p].events += t.events;
    }
  }
  if (stack.metrics != nullptr) s.registry = stack.metrics->Snapshot();
  if (stack.server != nullptr) s.server = stack.server->counters();
  if (stack.trace != nullptr) s.trace_us = stack.trace->NowUs();
  return s;
}

/// The measured window. The headline figures are medians over one-second
/// slices of the window (by call start), so a short stall of the shared
/// host moves one slice, not the run's result.
struct Window {
  double nominal_s = 0;        ///< --seconds of this window
  /// Peak resident set when the clients stopped, minus the harness's own
  /// answer logs: those grow with the ops a run completes and would make the
  /// figure track throughput rather than the system's footprint.
  double peak_rss_mib = 0;
  double window_s = 0;         ///< window open .. last window call end
  double flush_updates_s = 0;  ///< harness-timed FlushUpdates after the window
  double flush_s = 0;          ///< FlushUpdates + FlushBuffers
  Snap before;
  Snap after;
  std::uint64_t ops = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t writes = 0;
  std::uint64_t scan_records = 0;
  std::vector<float> latency_us;               ///< every window call, ascending
  std::vector<std::vector<float>> slice_us;    ///< per slice, ascending
  std::size_t batch = 1;                       ///< ops per call

  std::size_t Slices() const { return slice_us.size(); }

  /// Median over slices of the slice's completion rate, discounted by the
  /// share of the window's wall time the final flushes took -- so deferred
  /// merge and write-back work still lowers it.
  double Throughput() const {
    std::vector<double> rates;
    const double slice_s = nominal_s / static_cast<double>(Slices());
    for (const auto& s : slice_us) {
      rates.push_back(static_cast<double>(s.size() * batch) / slice_s);
    }
    return Median(rates) * window_s / (window_s + flush_s);
  }

  /// Median over slices of the slice's q-quantile latency.
  double LatencyUs(double q) const {
    std::vector<double> per_slice;
    for (const auto& s : slice_us) per_slice.push_back(Quantile(s, q));
    return Median(per_slice);
  }
};

void SleepUntil(std::uint64_t deadline_ns) {
  for (std::uint64_t now = NowNs(); now < deadline_ns; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::uint64_t>(
        deadline_ns - now, 50'000'000)));
  }
}

/// Warm-up, measured window, then FlushUpdates + FlushBuffers (counted in
/// the window's wall time, so deferred merge and write-back work shows).
Status Drive(const WorkloadDef& def, Stack& stack, const Tapes& tapes, double warmup_s,
             double window_s, SpanLog* main_log, std::vector<ClientLog>* logs, Window* w) {
  std::atomic<int> ready{0};
  std::atomic<int> phase{kWarmup};
  std::atomic<std::uint64_t> window_start_ns{0};
  std::vector<std::thread> threads;
  threads.reserve(def.clients);
  for (std::size_t c = 0; c < def.clients; ++c) {
    threads.emplace_back(RunClient, std::cref(def), &stack, std::cref(tapes.ops[c]), c,
                         &ready, &phase, &window_start_ns, &(*logs)[c]);
  }
  while (ready.load(std::memory_order_acquire) < static_cast<int>(def.clients)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SleepUntil(NowNs() + static_cast<std::uint64_t>(warmup_s * 1e9));
  w->before = TakeSnap(stack);
  const std::uint64_t window_id = main_log->ReserveId();
  const std::uint64_t start_ns = NowNs();
  window_start_ns.store(start_ns, std::memory_order_relaxed);
  phase.store(kWindow, std::memory_order_release);
  SleepUntil(start_ns + static_cast<std::uint64_t>(window_s * 1e9));
  phase.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  double log_bytes = 0;
  for (const ClientLog& log : *logs) log_bytes += static_cast<double>(log.Bytes());
  w->peak_rss_mib = PeakRssMib() - log_bytes / (1024.0 * 1024.0);

  w->nominal_s = window_s;
  w->batch = def.batch;
  w->slice_us.resize(std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(window_s))));
  const double slice_ms = window_s * 1e3 / static_cast<double>(w->Slices());
  std::uint64_t end_ns = start_ns;
  for (ClientLog& log : *logs) {
    if (!log.status.ok()) return log.status;
    end_ns = std::max(end_ns, log.last_window_end_ns);
    w->ops += log.window_ops;
    w->calls += log.window_calls;
    w->failed += log.window_failed;
    w->writes += log.window_writes;
    w->scan_records += log.window_scan_records;
    for (std::size_t i = 0; i < log.latency_us.size(); ++i) {
      w->latency_us.push_back(log.latency_us[i]);
      const auto slice = static_cast<std::size_t>(log.start_ms[i] / slice_ms);
      w->slice_us[std::min(slice, w->Slices() - 1)].push_back(log.latency_us[i]);
    }
  }
  std::sort(w->latency_us.begin(), w->latency_us.end());
  for (auto& slice : w->slice_us) std::sort(slice.begin(), slice.end());
  w->window_s = Seconds(start_ns, end_ns);

  const std::uint64_t f0 = NowNs();
  {
    ScopedSpan span(main_log, "ShardedEngine::FlushUpdates", window_id);
    if (Status s = stack.engine->FlushUpdates(); !s.ok()) return s;
  }
  const std::uint64_t f1 = NowNs();
  {
    ScopedSpan span(main_log, "ShardedEngine::FlushBuffers", window_id);
    if (Status s = stack.engine->FlushBuffers(); !s.ok()) return s;
  }
  const std::uint64_t f2 = NowNs();
  main_log->AddWithId(window_id, "window", start_ns, f2);
  w->flush_updates_s = Seconds(f0, f1);
  w->flush_s = Seconds(f0, f2);
  w->after = TakeSnap(stack);
  if (w->ops == 0) return Status::FailedPrecondition("no operation completed in the window");
  return Status::Ok();
}

// --------------------------------------------------------------------------
// Oracle

/// Counts oracle failures and prints the first few.
struct Oracle {
  bool corrupt = false;
  std::uint64_t checked = 0;
  std::uint64_t failures = 0;

  /// The answer a lookup of an unwritten bulkloaded key must give.
  Payload Expected(Key key) const { return key + 1 + (corrupt ? 1 : 0); }

  void Check(bool ok, const char* what, Key key, std::uint64_t got, std::uint64_t want) {
    ++checked;
    if (ok) return;
    if (failures++ < 5) {
      std::fprintf(stderr, "oracle: %s for key %" PRIu64 ": got %" PRIu64 ", want %" PRIu64 "\n",
                   what, key, got, want);
    }
  }
};

/// True when `payload` is a value some tape wrote to `key` (served_update_wal).
bool WrittenByTape(const Tapes& tapes, Key key, Payload payload) {
  const std::uint64_t tag = payload ^ (key + 1);
  const std::uint64_t client = (tag >> kTagPosBits) - 1;
  const std::uint64_t pos = (tag & ((std::uint64_t{1} << kTagPosBits) - 1)) - 1;
  if (client >= tapes.ops.size() || pos >= tapes.ops[client].size()) return false;
  const kv::Request& req = tapes.ops[client][pos];
  return req.kind == kv::OpKind::kInsert && req.key == key && req.payload == payload;
}

void CheckAnswers(const WorkloadDef& def, const Tapes& tapes,
                  const std::vector<ClientLog>& logs, Oracle* oracle) {
  const Key max_bulk_key = tapes.bulk.back().key;
  const auto bulk_begin = tapes.bulk.begin();
  const auto bulk_end = tapes.bulk.end();
  const auto lower = [&](Key k) {
    return std::lower_bound(bulk_begin, bulk_end, k,
                            [](const Record& r, Key key) { return r.key < key; });
  };
  const auto upper = [&](Key k) {
    return std::upper_bound(bulk_begin, bulk_end, k,
                            [](Key key, const Record& r) { return key < r.key; });
  };
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const std::vector<kv::Request>& tape = tapes.ops[c];
    const ClientLog& log = logs[c];
    for (const FailedOp& f : log.failed_ops) {
      oracle->Check(false, "op failed", tape[f.op % tape.size()].key,
                    static_cast<std::uint64_t>(f.code), 0);
    }
    // Walk the ops in execution order; the tape says which answer is whose.
    std::size_t next_lookup = 0;
    std::size_t next_scan = 0;
    std::size_t next_sample = 0;
    for (std::uint64_t op = 0; op < log.ops; ++op) {
      const kv::Request& req = tape[op % tape.size()];
      if (req.kind == kv::OpKind::kLookup) {
        const Payload got = log.lookup_payloads[next_lookup++];
        const bool ok = got == oracle->Expected(req.key) ||
                        (def.wal && WrittenByTape(tapes, req.key, got));
        oracle->Check(ok, "lookup payload", req.key, got, oracle->Expected(req.key));
        continue;
      }
      if (req.kind != kv::OpKind::kScan) continue;
      const std::size_t scan = next_scan++;
      const ScanAnswer& a = log.scans[scan];
      oracle->Check(a.count > 0, "scan empty", req.key, a.count, req.scan_count);
      if (a.count == 0) continue;
      oracle->Check(a.first >= req.key, "scan starts before its start key", req.key, a.first,
                    req.key);
      const std::uint32_t want = req.scan_count + (oracle->corrupt ? 1 : 0);
      oracle->Check(a.count == want || a.last >= max_bulk_key, "short scan before the last key",
                    req.key, a.count, want);
      const auto bulk_in_range = static_cast<std::uint64_t>(upper(a.last) - lower(req.key));
      oracle->Check(bulk_in_range <= a.count, "scan misses bulkloaded records", req.key,
                    a.count, bulk_in_range);

      if (next_sample >= log.sampled_scans.size() || log.sampled_scans[next_sample].scan != scan) {
        continue;
      }
      const std::vector<Record>& records = log.sampled_scans[next_sample++].records;
      auto it = lower(req.key);
      for (std::size_t i = 0; i < records.size(); ++i) {
        const Record& r = records[i];
        if (i > 0) {
          oracle->Check(r.key > records[i - 1].key, "scan not strictly increasing", req.key,
                        r.key, records[i - 1].key);
        }
        oracle->Check(r.payload == oracle->Expected(r.key), "scan payload", r.key, r.payload,
                      oracle->Expected(r.key));
        // Every bulkloaded key up to this record must have appeared.
        for (; it != bulk_end && it->key < r.key; ++it) {
          oracle->Check(false, "scan skipped a bulkloaded record", it->key, r.key, it->key);
        }
        if (it != bulk_end && it->key == r.key) ++it;
      }
    }
  }
}

/// served_update_wal: reads every acknowledged write's key from the live
/// engine, shuts the server down (drain + checkpoint), recovers a fresh
/// engine from the same WAL/checkpoint files, and requires every key to read
/// back the value the live engine held.
Status RestartCheck(const WorkloadDef& def, const Tapes& tapes,
                    const std::vector<ClientLog>& logs, Stack* stack, Oracle* oracle,
                    std::uint64_t* keys_checked) {
  std::vector<Key> keys;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const std::vector<kv::Request>& tape = tapes.ops[c];
    std::vector<std::uint64_t> failed;
    for (const FailedOp& f : logs[c].failed_ops) failed.push_back(f.op);
    for (std::uint64_t op = 0; op < logs[c].ops; ++op) {
      const kv::Request& req = tape[op % tape.size()];
      if (kv::OpKindIsWrite(req.kind) && !std::binary_search(failed.begin(), failed.end(), op)) {
        keys.push_back(req.key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  *keys_checked = keys.size();

  std::vector<Payload> live(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    bool found = false;
    if (Status s = stack->engine->Lookup(keys[i], &live[i], &found); !s.ok()) return s;
    oracle->Check(found && live[i] != keys[i] + 1 && WrittenByTape(tapes, keys[i], live[i]),
                  "acknowledged write not visible", keys[i], live[i], 0);
  }

  if (Status s = stack->server->Shutdown(); !s.ok()) return s;
  stack->server.reset();
  stack->engine.reset();
  stack->store.reset();
  if (Status s = OpenStore(stack->dir, /*truncate=*/false, stack->metrics.get(), &stack->store);
      !s.ok()) {
    return s;
  }
  std::error_code ec;
  std::filesystem::create_directories(stack->dir + "/recovered", ec);
  stack->engine = std::make_unique<ShardedEngine>(
      MakeEngineOptions(def, *stack, stack->dir + "/recovered"));
  if (Status s = stack->engine->RecoverFrom(stack->store.get(), tapes.bulk); !s.ok()) return s;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Payload p = 0;
    bool found = false;
    if (Status s = stack->engine->Lookup(keys[i], &p, &found); !s.ok()) return s;
    const Payload want = live[i] + (oracle->corrupt ? 1 : 0);
    oracle->Check(found && p == want, "write lost across restart", keys[i], p, want);
  }
  return Status::Ok();
}

// --------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;  ///< 0 when the metric is not a sampled statistic
};

double Mean(const std::vector<float>& v) {
  double sum = 0;
  for (float x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

bool NameMatches(const std::string& name, const std::string& suffix) {
  return name == suffix || (name.size() > suffix.size() &&
                            name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
                            name[name.size() - suffix.size() - 1] == '.');
}

/// after - before over every histogram whose name is `suffix` or ends in
/// ".suffix" (shard-prefixed metrics sum across shards).
HistogramSnapshot HistDelta(const Snap& before, const Snap& after,
                            std::initializer_list<const char*> suffixes) {
  HistogramSnapshot d;
  for (const auto& [name, h] : after.registry.histograms) {
    if (std::none_of(suffixes.begin(), suffixes.end(),
                     [&](const char* s) { return NameMatches(name, s); })) {
      continue;
    }
    const auto it = before.registry.histograms.find(name);
    for (int b = 0; b < LatencyBuckets::kNumBuckets; ++b) {
      d.buckets[b] += h.buckets[b] - (it == before.registry.histograms.end() ? 0 : it->second.buckets[b]);
    }
    d.count += h.count - (it == before.registry.histograms.end() ? 0 : it->second.count);
    d.sum_us += h.sum_us - (it == before.registry.histograms.end() ? 0 : it->second.sum_us);
  }
  return d;
}

double CounterDelta(const Snap& before, const Snap& after, const char* suffix) {
  double d = 0;
  for (const auto& [name, v] : after.registry.counters) {
    if (!NameMatches(name, suffix)) continue;
    const auto it = before.registry.counters.find(name);
    d += static_cast<double>(v - (it == before.registry.counters.end() ? 0 : it->second));
  }
  return d;
}

double GaugeDelta(const Snap& before, const Snap& after, const char* suffix) {
  double d = 0;
  for (const auto& [name, v] : after.registry.gauges) {
    if (!NameMatches(name, suffix)) continue;
    const auto it = before.registry.gauges.find(name);
    d += v - (it == before.registry.gauges.end() ? 0.0 : it->second);
  }
  return d;
}

/// Bucket-resolved histogram quantile: the midpoint of the bucket holding the
/// q-th sample (buckets are at most 25% of their lower bound wide).
double HistQuantile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  return (h.QuantileLowerBound(q) + h.QuantileUpperBound(q)) / 2;
}

/// Durations (us) of the TraceRecorder's `name` spans that started in
/// [from_us, to_us), read back from its Chrome trace export.
std::vector<float> TraceSpanDurations(const TraceRecorder& trace, const char* name,
                                      std::uint64_t from_us, std::uint64_t to_us) {
  const std::string json = trace.ToChromeTraceJson();
  const std::string needle = std::string("{\"name\":\"") + name + "\"";
  std::vector<float> out;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + 1)) {
    const std::size_t ts = json.find("\"ts\":", pos);
    const std::size_t dur = json.find("\"dur\":", pos);
    if (ts == std::string::npos || dur == std::string::npos) break;
    const std::uint64_t start = std::strtoull(json.c_str() + ts + 5, nullptr, 10);
    if (start >= from_us && start < to_us) {
      out.push_back(static_cast<float>(std::strtod(json.c_str() + dur + 6, nullptr)));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}


/// Share of window ops whose key the busiest shard owns (ShardFor over the
/// ops each client executed in the window).
double HotShardShare(const Stack& stack, const Tapes& tapes, const std::vector<ClientLog>& logs) {
  std::vector<std::uint64_t> per_shard(stack.engine->num_shards(), 0);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const std::vector<kv::Request>& tape = tapes.ops[c];
    for (std::uint64_t op = logs[c].window_first_op; op < logs[c].window_end_op; ++op) {
      ++per_shard[stack.engine->ShardFor(tape[op % tape.size()].key)];
      ++total;
    }
  }
  return Ratio(static_cast<double>(*std::max_element(per_shard.begin(), per_shard.end())),
               static_cast<double>(total));
}

/// Single-thread replay of each client's first window ops straight into the
/// owning shard's index through kv::ExecuteOnIndex (no latch, no server):
/// the index's own per-op time. Sorted microseconds.
std::vector<float> ReplayOnIndex(Stack& stack, const Tapes& tapes,
                                 const std::vector<ClientLog>& logs, SpanLog* log) {
  std::vector<float> us;
  kv::Response resp;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(kReplayMaxS * 1e9);
  for (std::size_t k = 0; k < kReplayOpsPerClient && NowNs() < deadline; ++k) {
    for (std::size_t c = 0; c < logs.size(); ++c) {
      const std::vector<kv::Request>& tape = tapes.ops[c];
      const kv::Request& req = tape[(logs[c].window_first_op + k) % tape.size()];
      DiskIndex* index = stack.engine->shard(stack.engine->ShardFor(req.key));
      const std::uint64_t t0 = NowNs();
      (void)kv::ExecuteOnIndex(index, std::span<const kv::Request>(&req, 1),
                               std::span<kv::Response>(&resp, 1));
      const std::uint64_t t1 = NowNs();
      us.push_back(static_cast<float>(static_cast<double>(t1 - t0) / 1e3));
      log->Add("kv::ExecuteOnIndex", t0, t1);
    }
  }
  std::sort(us.begin(), us.end());
  return us;
}

/// Allocated disk bytes (freed space included: the paper reclaims none) per
/// byte of live user data (16-byte records).
double BytesStoredPerUserByte(const IndexStats& stats) {
  return Ratio(static_cast<double>(stats.disk_bytes),
               static_cast<double>(stats.num_records) * sizeof(Record));
}

std::vector<Metric> EndToEndMetrics(const Window& w, double setup_s, std::size_t setup_reps) {
  const IoStatsSnapshot d = w.after.io - w.before.io;
  const double ops = static_cast<double>(w.ops);
  const std::uint64_t n = w.latency_us.size();
  return {
      {"setup_s", setup_s, "s", setup_reps},
      {"throughput_ops_s", w.Throughput(), "ops/s", w.ops},
      {"latency_p50_us", w.LatencyUs(0.50), "us", n},
      {"latency_p99_us", w.LatencyUs(0.99), "us", n},
      {"peak_rss_mib", w.peak_rss_mib, "MiB", 0},
      // Printed for the report only (not in the result object): the first
      // three can be exactly 0 on a workload by design (lookups only, index
      // in cache), and bytes stored grows with the number of writes a run
      // completes (no space reuse), so it would track throughput.
      {"failed_ops_share", Ratio(static_cast<double>(w.failed), ops), "share", w.ops},
      {"blocks_read_per_op", Ratio(static_cast<double>(d.TotalReads()), ops), "blocks/op",
       w.ops},
      {"blocks_written_per_op", Ratio(static_cast<double>(d.TotalWrites()), ops), "blocks/op",
       w.ops},
      {"bytes_stored_per_user_byte", BytesStoredPerUserByte(w.after.stats), "B/B", 0},
      {"latency_p999_us", Quantile(w.latency_us, 0.999), "us", n},
  };
}

constexpr std::size_t kResultEndToEnd = 5;  ///< leading EndToEndMetrics in the result

std::vector<Metric> PerLayerMetrics(const WorkloadDef& def, const Stack& stack,
                                    const Tapes& tapes, const std::vector<ClientLog>& logs,
                                    const Window& w, const std::vector<float>& index_us,
                                    double untraced_throughput) {
  const Snap& a = w.before;
  const Snap& b = w.after;
  const IoStatsSnapshot d = b.io - a.io;
  const double ops = static_cast<double>(w.ops);
  const double writes = static_cast<double>(w.writes);
  const double client_p50 = Quantile(w.latency_us, 0.5);
  const double client_mean = Mean(w.latency_us);

  const HistogramSnapshot queue = HistDelta(a, b, {"server.queue_wait_us"});
  const HistogramSnapshot exec = HistDelta(a, b, {"server.execute_us"});
  const HistogramSnapshot engine_ops =
      HistDelta(a, b, {"engine.lookup_us", "engine.insert_us", "engine.delete_us",
                       "engine.rmw_us", "engine.scan_us", "engine.execute_us"});
  const HistogramSnapshot lock_wait = HistDelta(a, b, {"engine.lock_wait_us"});
  const HistogramSnapshot wal_force = HistDelta(a, b, {"wal.force_us"});
  const HistogramSnapshot device = HistDelta(a, b, {"device.io_us"});
  const double batches =
      static_cast<double>(b.server.batches_executed - a.server.batches_executed);
  const double overloaded =
      static_cast<double>(b.server.batches_overloaded - a.server.batches_overloaded);
  const double forces = CounterDelta(a, b, "wal.forces");
  const auto phase_us = [&](OpPhase p) {
    return b.phases[static_cast<int>(p)].cpu_us - a.phases[static_cast<int>(p)].cpu_us;
  };
  const std::vector<float> merges =
      stack.trace == nullptr ? std::vector<float>{}
                             : TraceSpanDurations(*stack.trace, "merge.drain", a.trace_us,
                                                  b.trace_us);
  const double window_us = (w.window_s + w.flush_s) * 1e6;

  double engine_p50 = HistQuantile(engine_ops, 0.5);
  double engine_p99 = HistQuantile(engine_ops, 0.99);
  // Time the program itself measured around each request: queue wait +
  // execute (served), the engine's own op/batch histograms (embedded).
  double covered_mean = exec.MeanUs() + queue.MeanUs();
  if (!def.served) {
    engine_p50 = client_p50;
    engine_p99 = Quantile(w.latency_us, 0.99);
    covered_mean = engine_ops.MeanUs();
  }
  const double n = static_cast<double>(w.latency_us.size());
  return {
      {"server.frontend_us_p50",
       def.served ? client_p50 - HistQuantile(queue, 0.5) - HistQuantile(exec, 0.5) : 0.0, "us",
       w.calls},
      {"server.queue_wait_us_p50", HistQuantile(queue, 0.5), "us", queue.count},
      {"server.queue_wait_us_p99", HistQuantile(queue, 0.99), "us", queue.count},
      {"server.execute_us_p50", HistQuantile(exec, 0.5), "us", exec.count},
      {"server.execute_us_p99", HistQuantile(exec, 0.99), "us", exec.count},
      {"server.ops_per_batch",
       Ratio(CounterDelta(a, b, "server.ops"), batches), "ops/batch", 0},
      {"server.overloaded_share", Ratio(overloaded, batches + overloaded), "share", 0},
      {"engine.execute_us_p50", engine_p50, "us", def.served ? engine_ops.count : w.calls},
      {"engine.execute_us_p99", engine_p99, "us", def.served ? engine_ops.count : w.calls},
      {"engine.lock_wait_us_p99", HistQuantile(lock_wait, 0.99), "us", lock_wait.count},
      {"engine.read_lock_waits_per_kop", Ratio(1000.0 * static_cast<double>(d.read_lock_waits), ops),
       "1/kop", 0},
      {"engine.hot_shard_op_share", HotShardShare(stack, tapes, logs), "share", w.ops},
      {"index.self_us_p50", Quantile(index_us, 0.5), "us", index_us.size()},
      {"index.search_us_per_op", Ratio(phase_us(OpPhase::kSearch), ops), "us/op", 0},
      {"index.insert_us_per_op", Ratio(phase_us(OpPhase::kInsert), ops), "us/op", 0},
      {"index.smo_us_per_op", Ratio(phase_us(OpPhase::kSmo), ops), "us/op", 0},
      {"index.smo_count", static_cast<double>(b.stats.smo_count - a.stats.smo_count), "count", 0},
      {"index.height", static_cast<double>(b.stats.height), "levels", 0},
      {"index.inner_nodes_per_op", Ratio(static_cast<double>(d.inner_nodes_visited), ops),
       "nodes/op", 0},
      {"index.leaf_nodes_per_op", Ratio(static_cast<double>(d.leaf_nodes_visited), ops),
       "nodes/op", 0},
      {"index.scan_records_per_leaf_read",
       Ratio(static_cast<double>(w.scan_records),
             static_cast<double>(d.HitsFor(FileClass::kLeaf) + d.MissesFor(FileClass::kLeaf))),
       "records/leaf", 0},
      {"updates.merges", CounterDelta(a, b, "updates.merges"), "count", 0},
      {"updates.spills", GaugeDelta(a, b, "updates.spills"), "count", 0},
      {"updates.merge_us_p99", Quantile(merges, 0.99), "us", merges.size()},
      {"updates.flush_s", w.flush_updates_s, "s", 0},
      {"recovery.wal_writes_per_write_op",
       Ratio(static_cast<double>(d.WritesFor(FileClass::kWal)), writes), "blocks/op", 0},
      {"recovery.records_per_force", Ratio(writes, forces), "ops/force", 0},
      {"recovery.wal_force_us_p99", HistQuantile(wal_force, 0.99), "us", wal_force.count},
      {"storage.buffer_hit_ratio", d.OverallHitRate(), "share", 0},
      {"storage.buffer_hit_ratio_inner", d.HitRateFor(FileClass::kInner), "share", 0},
      {"storage.buffer_hit_ratio_leaf", d.HitRateFor(FileClass::kLeaf), "share", 0},
      {"storage.evictions_per_op", Ratio(static_cast<double>(d.TotalEvictions()), ops),
       "blocks/op", 0},
      {"storage.writebacks_per_op", Ratio(static_cast<double>(d.TotalWritebacks()), ops),
       "blocks/op", 0},
      {"storage.blocks_read_per_op", Ratio(static_cast<double>(d.TotalReads()), ops),
       "blocks/op", 0},
      {"storage.blocks_written_per_op", Ratio(static_cast<double>(d.TotalWrites()), ops),
       "blocks/op", 0},
      {"storage.device_submissions_per_op", Ratio(CounterDelta(a, b, "device.submissions"), ops),
       "calls/op", 0},
      {"storage.device_coalesced_share",
       Ratio(CounterDelta(a, b, "device.coalesced_blocks"), static_cast<double>(d.TotalIo())),
       "share", 0},
      {"storage.device_io_us_p50", HistQuantile(device, 0.5), "us", device.count},
      {"storage.device_io_us_p99", HistQuantile(device, 0.99), "us", device.count},
      {"storage.device_busy_share", Ratio(device.sum_us, window_us), "share", 0},
      {"storage.bytes_stored_per_user_byte", BytesStoredPerUserByte(b.stats), "B/B", 0},
      {"storage.disk_mib", static_cast<double>(b.stats.disk_bytes) / (1024.0 * 1024.0), "MiB", 0},
      {"telemetry.tracing_overhead_share", 1.0 - Ratio(w.Throughput(), untraced_throughput),
       "share", 0},
      {"telemetry.unattributed_share",
       Ratio(std::max(0.0, client_mean - covered_mean), client_mean), "share",
       static_cast<std::uint64_t>(n)},
  };
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-36s %16.4f %-12s n=%" PRIu64 "\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

/// Spread of the per-slice figures behind the slice medians.
void PrintSlices(const Window& w) {
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p99;
  const double slice_s = w.nominal_s / static_cast<double>(w.Slices());
  for (const auto& s : w.slice_us) {
    rates.push_back(static_cast<double>(s.size() * w.batch) / slice_s);
    p50.push_back(Quantile(s, 0.5));
    p99.push_back(Quantile(s, 0.99));
  }
  const auto line = [](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::printf("  %-22s min %12.2f  median %12.2f  max %12.2f\n", name, v.front(), Median(v),
                v.back());
  };
  std::printf("per-slice (%zu slices of %.2f s):\n", w.Slices(), slice_s);
  line("ops/s", rates);
  line("p50 us", p50);
  line("p99 us", p99);
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// One measured pass: build, drive, check answers (and, for the WAL
/// workload, the durable restart), leaving the stack set up for metrics.
struct Pass {
  Stack stack;
  std::vector<ClientLog> logs;
  Window window;
  Oracle oracle;
  std::uint64_t restart_keys = 0;
};

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (glibc otherwise raises it as large blocks are
  // freed) gives every large buffer its own mapping, returned to the OS on
  // free: peak RSS then depends on what is live, not on allocation history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (served_lookup, served_update_wal, "
                         "embedded_scan_pgm)\n", args.workload.c_str());
    return 2;
  }
  const std::size_t keys = args.keys > 0 ? args.keys : def->keys;
  const std::size_t tape_ops =
      std::max<std::size_t>(def->clients * 1000, def->tape_ops * keys / def->keys);

  std::printf("workload %s: index=%s keys=%zu shards=%zu budget=%zu blocks clients=%zu "
              "batch=%zu lock=shared device=file%s\n",
              def->name, def->index, keys, kShards, def->budget_blocks, def->clients,
              def->batch, def->served ? " transport=unix-socket" : " transport=in-process");
  if (def->wal) {
    std::printf("durability: group-commit WAL, window %zu ops, update buffer %zu blocks/shard, "
                "background merge; WAL forces are pwrite() to the page cache, no fsync\n",
                kGroupCommitWindow, kUpdateBufferBlocks);
  }
  std::printf("build: %s, compiler %s\n", PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  const Tapes tapes = MakeTapes(*def, keys, tape_ops, args.seed);
  SpanLog main_log(0, args.trace);
  const double pass_s = args.trace ? args.seconds / 2 : args.seconds;
  const double warmup_s = std::min(3.0, 0.25 * args.seconds);

  // Runs one pass in `dir`; returns a process exit code (0 = ok so far).
  const auto run_pass = [&](const std::string& dir, bool registry, bool traced, Pass* pass,
                            std::vector<double>* setup_times, std::size_t reps) -> int {
    for (std::size_t r = 0; r < reps; ++r) {
      double setup_s = 0;
      const std::string rep_dir = dir + "/setup" + std::to_string(r);
      const Status s = BuildStack(*def, tapes.bulk, rep_dir, registry, traced, &main_log,
                                  &pass->stack, &setup_s);
      if (!s.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
        TearDown(&pass->stack);
        return 3;
      }
      setup_times->push_back(setup_s);
      if (r + 1 < reps) TearDown(&pass->stack);
    }
    for (std::size_t c = 0; c < def->clients; ++c) {
      pass->logs.emplace_back(static_cast<std::uint32_t>(c + 1), traced);
    }
    pass->oracle.corrupt = args.corrupt_oracle;
    if (Status s = Drive(*def, pass->stack, tapes, warmup_s, pass_s, &main_log, &pass->logs,
                         &pass->window);
        !s.ok()) {
      std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
      TearDown(&pass->stack);
      return 3;
    }
    CheckAnswers(*def, tapes, pass->logs, &pass->oracle);
    return 0;
  };
  const auto finish_pass = [&](Pass* pass) -> int {
    int rc = 0;
    if (def->wal) {
      const Status s = RestartCheck(*def, tapes, pass->logs, &pass->stack, &pass->oracle,
                                    &pass->restart_keys);
      if (!s.ok()) {
        std::fprintf(stderr, "restart check failed: %s\n", s.ToString().c_str());
        rc = 3;
      } else {
        std::printf("durable restart: %" PRIu64 " acknowledged keys recovered and re-read\n",
                    pass->restart_keys);
      }
    }
    if (Status s = TearDown(&pass->stack); !s.ok() && rc == 0) {
      std::fprintf(stderr, "shutdown failed: %s\n", s.ToString().c_str());
      rc = 3;
    }
    std::printf("oracle: %" PRIu64 " checks, %" PRIu64 " failures\n", pass->oracle.checked,
                pass->oracle.failures);
    return rc;
  };

  std::vector<double> setup_times;
  Pass plain;
  int rc = run_pass(args.work_dir + "/untraced", def->served, false, &plain, &setup_times,
                    args.trace ? 1 : kSetupReps);
  if (rc == 0) rc = finish_pass(&plain);
  if (rc != 0) return rc;
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];
  std::vector<Metric> e2e = EndToEndMetrics(plain.window, setup_s, setup_times.size());
  PrintMetrics(args.trace ? "end-to-end (untraced pass):" : "end-to-end:", e2e);
  PrintSlices(plain.window);
  bool correct = plain.oracle.failures == 0;

  if (!args.trace) {
    PrintResult(correct, plain.window.ops, plain.window.failed, e2e, kResultEndToEnd);
    return correct ? 0 : 1;
  }

  Pass traced;
  std::vector<double> traced_setup;
  rc = run_pass(args.work_dir + "/traced", true, true, &traced, &traced_setup, 1);
  if (rc != 0) {
    TearDown(&traced.stack);
    return rc;
  }
  std::vector<float> index_us = ReplayOnIndex(traced.stack, tapes, traced.logs, &main_log);
  if (traced.stack.server != nullptr) {
    ScopedSpan span(&main_log, "KvServer::StatsJson");
    std::printf("server stats document: %zu bytes\n", traced.stack.server->StatsJson().size());
  }
  const std::vector<Metric> layers =
      PerLayerMetrics(*def, traced.stack, tapes, traced.logs, traced.window, index_us,
                      plain.window.Throughput());
  rc = finish_pass(&traced);
  if (rc != 0) return rc;
  PrintMetrics("end-to-end (traced pass):",
               EndToEndMetrics(traced.window, traced_setup.front(), 1));
  PrintMetrics("per-layer (traced pass):", layers);
  correct = correct && traced.oracle.failures == 0;

  if (!args.spans_out.empty()) {
    std::vector<const SpanLog*> all = {&main_log};
    for (const ClientLog& log : traced.logs) all.push_back(&log.spans);
    if (!perfbench::WriteSpansCsv(args.spans_out, all)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
      return 3;
    }
    std::uint64_t kept = 0;
    std::uint64_t dropped = 0;
    for (const SpanLog* log : all) {
      kept += log->spans().size();
      dropped += log->dropped();
    }
    std::printf("spans: %" PRIu64 " written to %s, %" PRIu64 " over the per-thread cap dropped\n",
                kept, args.spans_out.c_str(), dropped);
  }
  PrintResult(correct, traced.window.ops, traced.window.failed, layers, layers.size());
  return correct ? 0 : 1;
}
