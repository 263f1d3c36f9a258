// Crash-sweep machinery costs (robustness issue, experiment A8): what the
// always-on integrity and crash-testing hooks cost when nothing is failing.
//
//   * BM_UnarmedCrashPoint — one MCA_CRASHPOINT() with nothing armed (a
//     relaxed atomic load and a not-taken branch);
//   * BM_RestartRecoveryByMarkers — wall time of DistNode::restart()'s
//     synchronous recovery pass by number of in-doubt prepared markers on
//     disk, with a live coordinator answering presumed-abort; marker reads
//     and drops go through the node's WalStore;
//   * the shape report — the share of a full committed WalStore write
//     (framed log append) that the frame's CRC-32C costs, by state size,
//     with and without fsync.
#include "bench_common.h"

#include <chrono>
#include <filesystem>

#include "common/checksum.h"
#include "dist/remote.h"
#include "sim/crash_points.h"
#include "storage/wal_store.h"
#include "sim/network.h"

namespace mca {
namespace {

using namespace std::chrono_literals;

NetworkConfig fast_config() {
  NetworkConfig c;
  c.min_delay = std::chrono::microseconds(10);
  c.max_delay = std::chrono::microseconds(200);
  return c;
}

ObjectState state_of_size(const Uid& uid, std::size_t body_bytes) {
  ByteBuffer b;
  for (std::size_t i = 0; i < body_bytes / 8; ++i) {
    b.pack_u64(0x9E3779B97F4A7C15ULL * (i + 1));
  }
  return ObjectState(uid, "Bench", std::move(b));
}

void BM_UnarmedCrashPoint(benchmark::State& state) {
  crash_points::reset();
  for (auto _ : state) {
    MCA_CRASHPOINT("tpc.coord.phase1.pre_send");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UnarmedCrashPoint);

// Fabricates `n` in-doubt prepared markers (zero prepared objects each, so
// only marker resolution is measured) in the participant's store.
void plant_markers(Runtime& rt, NodeId coordinator, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ParticipantTable::write_marker(rt, {Uid(), coordinator, {}, {}, {}});
  }
}

void BM_RestartRecoveryByMarkers(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_bench_markers_" + Uid().to_string());
  {
    Network net(fast_config());
    WalStore store(dir);
    DistNode coordinator(net, 1);
    DistNode participant(net, 2, &store);
    participant.set_recovery_options(
        DistNode::RecoveryOptions{/*period=*/1'000ms, /*call_timeout=*/500ms,
                                  /*backoff_max=*/1'000ms});
    for (auto _ : state) {
      participant.crash();
      plant_markers(participant.runtime(), coordinator.id(), n);
      // restart() runs the synchronous pass: every marker is resolved with
      // the live coordinator (no log record => presumed abort) and dropped.
      const auto start = std::chrono::steady_clock::now();
      participant.restart();
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      if (participant.in_doubt_count() != 0) std::abort();
      state.SetIterationTime(elapsed.count());
    }
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RestartRecoveryByMarkers)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// What integrity costs on the store-write path: time the body encoding, the
// CRC-32C over the encoded bodies and a WalStore write (framed log append)
// of the same states, and report the CRC as a share of the write.
void checksum_overhead_report() {
  bench::report_header(
      "CRC-framed WAL records — CRC share of the store-write path",
      "the record frame's CRC-32C costs ~0.1% of a fsync-less WAL append of a "
      "64 B state, ~0.5% at 1 KiB and ~2.3% at 4 KiB, and under 0.4% of any "
      "fsynced append up to 4 KiB (4-vCPU KVM guest; the table CRC-32 it "
      "replaced cost 0.40% / 3.3% / 9.1% without fsync)");
  const auto dir =
      std::filesystem::temp_directory_path() / ("mca_bench_crc_" + Uid().to_string());
  for (const bool fsync : {false, true}) {
    const int writes = fsync ? 60 : 800;
    std::printf("  [%s]\n", fsync ? "fsync on (durable config)"
                                  : "fsync off (fastest possible write path)");
    for (const std::size_t body : {std::size_t{64}, std::size_t{1024}, std::size_t{4096}}) {
      std::vector<ObjectState> states;
      states.reserve(writes);
      for (int i = 0; i < writes; ++i) states.push_back(state_of_size(Uid(), body));
      std::vector<ByteBuffer> encoded;
      encoded.reserve(writes);

      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& s : states) encoded.push_back(s.encode_unchecked());
      const auto t1 = std::chrono::steady_clock::now();
      for (const auto& e : encoded) benchmark::DoNotOptimize(crc32c(e.bytes()));
      const auto t2 = std::chrono::steady_clock::now();
      {
        WalStore::Options options;
        options.sync = fsync;
        WalStore store(dir, options);
        for (const auto& s : states) store.write(s);
      }
      const auto t3 = std::chrono::steady_clock::now();
      std::filesystem::remove_all(dir);

      const double encode_ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / writes;
      const double crc_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() / writes;
      const double wal_ns = std::chrono::duration<double, std::nano>(t3 - t2).count() / writes;
      std::printf(
          "    body %5zu B: encode %6.0f ns, crc %6.0f ns, wal append %9.0f ns (crc %.2f%%)\n",
          body, encode_ns, crc_ns, wal_ns, 100.0 * crc_ns / wal_ns);
    }
  }
}

}  // namespace mca

int main(int argc, char** argv) {
  mca::checksum_overhead_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
