#include "procfs.h"

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace clusterbench {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Value of "Key:" in a /proc status-style file ("Key:\t<number> ..."), or 0.
std::uint64_t status_field(const std::string& text, const std::string& key) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) return std::stoull(line.substr(key.size() + 1));
  }
  return 0;
}

// Fields of /proc/<pid>/stat after the "(comm)" field, which may itself hold
// spaces and parentheses. Field 3 of stat(5) (state) is index 0 here.
std::vector<std::string> stat_fields(const std::string& text) {
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("malformed stat line");
  std::istringstream in(text.substr(close + 1));
  std::vector<std::string> out;
  std::string field;
  while (in >> field) out.push_back(field);
  return out;
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

}  // namespace

std::string thread_group(const std::string& comm) {
  if (comm == "mca-net-reactor") return "reactor";
  if (comm.rfind("mca-rpc", 0) == 0) return "rpc";
  if (comm == "mca-timer") return "timer";
  if (comm == "mca-wal") return "wal";
  if (comm.rfind("mca-exec", 0) == 0) return "exec";
  return "other";
}

ProcessSample sample_process(pid_t pid) {
  const std::filesystem::path dir = "/proc/" + std::to_string(pid);
  ProcessSample s;
  const double tick_ms = 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  const std::vector<std::string> stat = stat_fields(read_file(dir / "stat"));
  // utime and stime are fields 14 and 15 of stat(5).
  s.cpu_ms = static_cast<double>(std::stoull(stat.at(11)) + std::stoull(stat.at(12))) * tick_ms;

  const std::string status = read_file(dir / "status");
  s.rss_mb = static_cast<double>(status_field(status, "VmRSS")) / 1024.0;
  s.threads = static_cast<int>(status_field(status, "Threads"));

  const std::string io = read_file(dir / "io");
  s.write_bytes = status_field(io, "write_bytes");
  s.write_syscalls = status_field(io, "syscw");

  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir / "task", ec)) {
    const int tid = std::stoi(entry.path().filename().string());
    try {
      TaskCounters t;
      t.group = thread_group(trim(read_file(entry.path() / "comm")));
      std::istringstream sched(read_file(entry.path() / "schedstat"));
      std::uint64_t run_ns = 0;
      sched >> run_ns;
      t.cpu_ms = static_cast<double>(run_ns) / 1e6;
      t.voluntary_switches =
          status_field(read_file(entry.path() / "status"), "voluntary_ctxt_switches");
      s.tasks.emplace(tid, std::move(t));
    } catch (const std::exception&) {
      // The thread exited while we read it; its CPU stays in s.cpu_ms.
    }
  }
  if (ec) throw std::runtime_error("cannot list " + (dir / "task").string());
  return s;
}

std::map<std::string, GroupDelta> group_deltas(const ProcessSample& before,
                                               const ProcessSample& after) {
  std::map<std::string, GroupDelta> out;
  for (const auto& [tid, task] : after.tasks) {
    GroupDelta& g = out[task.group];
    const auto it = before.tasks.find(tid);
    const double cpu0 = it == before.tasks.end() ? 0 : it->second.cpu_ms;
    const std::uint64_t sw0 = it == before.tasks.end() ? 0 : it->second.voluntary_switches;
    g.cpu_ms += task.cpu_ms - cpu0;
    g.voluntary_switches += task.voluntary_switches - sw0;
  }
  return out;
}

HostCpu sample_host_cpu() {
  std::istringstream in(read_file("/proc/stat"));
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  HostCpu h;
  // user nice system idle iowait irq softirq steal — guest time is already
  // counted in user/nice.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    in >> v;
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

double self_cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace clusterbench
