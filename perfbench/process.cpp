// Child processes (the host compiler, generated programs) and the memory
// probes for in-process solves.

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

extern char** environ;

namespace perfbench {

ProcResult run_process(const std::vector<std::string>& argv,
                       const std::string& log_path, double timeout_s) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);

  ProcResult out;
  pid_t pid = 0;
  const double t0 = now_s();
  const int rc =
      posix_spawnp(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  DPGEN_CHECK(rc == 0, dpgen::cat("cannot start ", argv[0], ": ",
                                  std::strerror(rc)));

  // The watchdog kills a child still running at the deadline.  waitid with
  // WNOWAIT leaves the exited child a zombie until the watchdog has been
  // retired, so the kill can never hit a recycled pid.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool killed = false;
  std::thread dog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                     [&] { return done; })) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
  });
  siginfo_t info{};
  while (waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) != 0 &&
         errno == EINTR) {
  }
  out.wall_s = now_s() - t0;
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  dog.join();

  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  out.timed_out = killed && WIFSIGNALED(status);

  std::ifstream log(log_path);
  std::stringstream text;
  text << log.rdbuf();
  out.output = text.str();
  return out;
}

namespace {

/// VmRSS and VmHWM from one read of /proc/self/status, MB.
struct Resident {
  double rss = 0.0;
  double hwm = 0.0;
};

Resident resident() {
  std::ifstream in("/proc/self/status");
  DPGEN_CHECK(in.good(), "cannot read /proc/self/status");
  Resident r;
  bool have_rss = false, have_hwm = false;
  for (std::string line; std::getline(in, line);) {
    const double mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    if (line.rfind("VmRSS:", 0) == 0) {
      r.rss = mb;
      have_rss = true;
    } else if (line.rfind("VmHWM:", 0) == 0) {
      r.hwm = mb;
      have_hwm = true;
    }
  }
  DPGEN_CHECK(have_rss && have_hwm, "/proc/self/status has no VmRSS/VmHWM");
  return r;
}

}  // namespace

double rss_mb() { return resident().rss; }

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  DPGEN_CHECK(!clear.fail(),
              "cannot reset the peak-RSS mark (/proc/self/clear_refs)");
  // After a reset the mark sits at the current resident set; a mark still
  // well above it means the kernel ignored the reset.
  const Resident r = resident();
  DPGEN_CHECK(r.hwm <= r.rss + std::max(1.0, 0.02 * r.rss),
              dpgen::cat("the peak-RSS mark did not reset: VmHWM ", r.hwm,
                         " MB, VmRSS ", r.rss, " MB"));
}

double peak_since_reset_mb() { return resident().hwm; }

}  // namespace perfbench
