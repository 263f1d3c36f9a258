// The WAL's group commit (DESIGN.md §5.6): the cost of making a commit
// durable.
//
// The workload is the store traffic one committed action generates: a batch
// of K object states made durable in one call (write_batch, Committed).
// WalStore frames the batch into one record run, appends it with a single
// write, and issues a single fsync.
//
// Four sections:
//   * throughput — single-writer commits/sec at batch 4. Reported, not
//     gated: an absolute rate depends on the disk under the temp directory,
//   * fsyncs per commit at batch sizes 1/4/8/16 — measured from the store's
//     own Stats counters, gated at <= 1.25 from batch 4 up (the "one barrier
//     per commit" property the design promises),
//   * concurrent writers — 8 threads of single-object commits; cross-
//     transaction group commit coalesces their flushes, so fsyncs-per-commit
//     drops *below* one. Reported, not gated: the exact coalescing factor is
//     scheduler-dependent,
//   * checkpoint stall — blob-shaped participant commits (a 96 KB shadow
//     covered by its prepared marker, then the lazy promotion and marker
//     drop) at the default 4 MiB checkpoint threshold, beside a writer of
//     small records. Reports both writers' waited-write latency (p50, p99,
//     max) and the checkpoints taken: the foreground cost of checkpointing.
//     Reported, not gated: a latency tail depends on the disk.
//
// Emits BENCH_wal.json and exits non-zero on a missed gate so CI catches a
// regression of the group-commit path.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "storage/wal_store.h"

namespace mca {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("mca_bench_wal_" + tag + "_" + Uid().to_string())) {
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// A commit's worth of store traffic: the same K objects, fresh payloads.
std::vector<ObjectState> make_batch(const std::vector<Uid>& uids, int iter) {
  std::vector<ObjectState> batch;
  batch.reserve(uids.size());
  for (std::size_t i = 0; i < uids.size(); ++i) {
    ByteBuffer payload;
    payload.pack_i64(static_cast<std::int64_t>(iter));
    payload.pack_i64(static_cast<std::int64_t>(i));
    batch.emplace_back(uids[i], "bench/Int", std::move(payload));
  }
  return batch;
}

// Runs `iters` single-writer batch commits, returns commits per second.
double commits_per_sec(WalStore& store, int batch_size, int iters) {
  std::vector<Uid> uids(static_cast<std::size_t>(batch_size));
  for (int warm = 0; warm < 3; ++warm) {
    store.write_batch(make_batch(uids, -1 - warm), WriteKind::Committed);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    store.write_batch(make_batch(uids, i), WriteKind::Committed);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(iters) / secs;
}

// fsyncs per commit over `iters` batch commits, from the store's counters.
double fsyncs_per_commit(WalStore& store, int batch_size, int iters) {
  std::vector<Uid> uids(static_cast<std::size_t>(batch_size));
  const auto before = store.stats().fsyncs;
  for (int i = 0; i < iters; ++i) {
    store.write_batch(make_batch(uids, i), WriteKind::Committed);
  }
  const auto after = store.stats().fsyncs;
  return static_cast<double>(after - before) / static_cast<double>(iters);
}

// Waited-write latencies of one writer, in microseconds.
struct Waits {
  std::vector<double> us;

  template <typename Fn>
  void time(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    us.push_back(std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                     .count());
  }
  [[nodiscard]] double quantile(double q) {
    if (us.empty()) return 0.0;
    std::sort(us.begin(), us.end());
    return us[std::min(us.size() - 1, static_cast<std::size_t>(q * static_cast<double>(us.size())))];
  }
  [[nodiscard]] bench::Json json() {
    return bench::Json::object()
        .set("writes", us.size())
        .set("p50", quantile(0.50))
        .set("p99", quantile(0.99))
        .set("max", quantile(1.0));
  }
};

// One blob commit at a participant, as the store sees it: the prepare's
// shadow rides the waited marker write that covers it, then phase two's
// promotion and marker drop are deferred behind that durable marker.
void blob_commit(WalStore& wal, const Uid& blob, const Uid& marker, const ByteBuffer& value,
                 Waits& waits) {
  {
    const DeferToNextWrite covered;
    wal.write_shadow(ObjectState(blob, "bench/Blob", ByteBuffer(value)));
  }
  ByteBuffer mark;
  mark.pack_uid(blob);
  waits.time([&] { wal.write(ObjectState(marker, "bench/Marker", std::move(mark))); });
  const DeferDurability lazy;
  wal.commit_shadow(blob);
  wal.remove(marker);
}

int run(bool smoke, const char* out_path) {
  const int throughput_iters = smoke ? 150 : 1500;
  const int fsync_iters = smoke ? 40 : 200;
  const int concurrent_writes = smoke ? 50 : 400;
  const int blob_commits = smoke ? 100 : 1000;
  constexpr std::size_t kBlobBytes = 96 * 1024;
  constexpr double kFsyncGate = 1.25;  // "≈ 1" with headroom for a stray barrier
  constexpr int kGateBatch = 4;

  std::printf("=== §5.6 — WAL group commit (%s) ===\n", smoke ? "smoke" : "full");

  // --- throughput at batch 4 ------------------------------------------------
  double wal_cps = 0.0;
  {
    ScratchDir dir("throughput");
    WalStore wal(dir.path / "wal");
    wal_cps = commits_per_sec(wal, kGateBatch, throughput_iters);
  }
  std::printf("%-22s %14s\n", "throughput (batch 4)", "wal c/s");
  std::printf("%-22s %14.0f\n", "", wal_cps);

  // --- fsyncs per commit vs batch size ---------------------------------------
  std::printf("%-22s %14s\n", "batch size", "wal fsync/c");
  bench::Json fsync_points = bench::Json::array();
  double wal_fsyncs_at_gate = 0.0;
  bool fsync_gate_pass = true;
  for (const int batch : {1, 4, 8, 16}) {
    ScratchDir dir("fsync_b" + std::to_string(batch));
    WalStore wal(dir.path / "wal");
    const double wal_fpc = fsyncs_per_commit(wal, batch, fsync_iters);
    if (batch == kGateBatch) wal_fsyncs_at_gate = wal_fpc;
    if (batch >= kGateBatch && wal_fpc > kFsyncGate) fsync_gate_pass = false;
    std::printf("%-22d %14.2f\n", batch, wal_fpc);
    fsync_points.push(
        bench::Json::object().set("batch", batch).set("wal_fsyncs_per_commit", wal_fpc));
  }

  // --- cross-transaction group commit under concurrency ----------------------
  double concurrent_fpc = 0.0;
  {
    ScratchDir dir("concurrent");
    WalStore wal(dir.path / "wal");
    constexpr int kThreads = 8;
    const auto before = wal.stats().fsyncs;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&wal, t, concurrent_writes] {
        const Uid uid;
        for (int i = 0; i < concurrent_writes; ++i) {
          ByteBuffer payload;
          payload.pack_i64(t);
          payload.pack_i64(i);
          wal.write(ObjectState(uid, "bench/Int", std::move(payload)));
        }
      });
    }
    for (std::thread& w : writers) w.join();
    const auto after = wal.stats().fsyncs;
    concurrent_fpc = static_cast<double>(after - before) /
                     static_cast<double>(kThreads * concurrent_writes);
    std::printf("%-22s %14d %14.3f\n", "concurrent writers", kThreads, concurrent_fpc);
  }

  // --- checkpoint stall: blob commits beside a small-record writer -------------
  Waits blob_waits;
  Waits small_waits;
  std::uint64_t checkpoints = 0;
  {
    ScratchDir dir("checkpoint");
    WalStore wal(dir.path / "wal");  // default options: 4 MiB checkpoint threshold
    std::atomic<bool> done{false};
    std::thread small([&] {
      const Uid uid;
      for (std::int64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        ByteBuffer payload;
        payload.pack_i64(i);
        small_waits.time([&] { wal.write(ObjectState(uid, "bench/Int", std::move(payload))); });
      }
    });
    const Uid blob;
    const Uid marker;
    ByteBuffer value;
    for (std::size_t i = 0; i < kBlobBytes / 8; ++i) value.pack_u64(0x9E3779B97F4A7C15ULL * (i + 1));
    for (int i = 0; i < blob_commits; ++i) {
      ByteBuffer fresh;
      fresh.pack_i64(i);  // a fresh value each commit, the same size
      fresh.pack_bytes(value.bytes().subspan(0, kBlobBytes - 12));
      blob_commit(wal, blob, marker, fresh, blob_waits);
    }
    done.store(true);
    small.join();
    (void)wal.fsck();  // waits out the last checkpoint
    checkpoints = wal.stats().checkpoints;
  }
  const bench::Json blob_json = blob_waits.json();
  const bench::Json small_json = small_waits.json();
  std::printf("%-22s %10s %10s %10s %10s\n", "checkpoint stall (us)", "writes", "p50", "p99",
              "max");
  for (auto* w : {&blob_waits, &small_waits}) {
    std::printf("%-22s %10zu %10.0f %10.0f %10.0f\n",
                w == &blob_waits ? "  blob marker write" : "  small write", w->us.size(),
                w->quantile(0.50), w->quantile(0.99), w->quantile(1.0));
  }
  std::printf("%-22s %10llu (%d blob commits of %zu B)\n", "  checkpoints taken",
              static_cast<unsigned long long>(checkpoints), blob_commits, kBlobBytes);

  const bool pass = fsync_gate_pass;

  bench::Json result = bench::Json::object();
  result.set("bench", "wal")
      .set("experiment", "§5.6 group-committed write-ahead log")
      .set("mode", smoke ? "smoke" : "full")
      .set("batch_size", kGateBatch)
      .set("wal_commits_per_sec", wal_cps)
      .set("fsyncs_per_commit", std::move(fsync_points))
      .set("wal_fsyncs_per_commit_at_batch_4", wal_fsyncs_at_gate)
      .set("fsync_gate", kFsyncGate)
      .set("concurrent_writer_fsyncs_per_commit", concurrent_fpc)
      .set("checkpoint_stall",
           bench::Json::object()
               .set("blob_commits", blob_commits)
               .set("blob_bytes", kBlobBytes)
               .set("checkpoint_threshold_bytes",
                    static_cast<std::size_t>(WalStore::Options{}.checkpoint_threshold_bytes))
               .set("checkpoints", static_cast<std::size_t>(checkpoints))
               .set("blob_marker_write_us", blob_json)
               .set("small_write_us", small_json))
      .set("pass", pass);
  result.write_file(out_path);

  std::printf("wal fsyncs/commit at batch >= %d: %.2f (gate %.2f) — %s\n", kGateBatch,
              wal_fsyncs_at_gate, kFsyncGate, fsync_gate_pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace mca

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_wal.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  return mca::run(smoke, out_path);
}
