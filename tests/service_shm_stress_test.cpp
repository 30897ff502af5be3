// Multi-process stress of the shared-memory transport: >= 4 forked
// client processes fire >= 10k mixed cold/warm requests at one server.
// Every reply must correlate to its request id, and — because every
// answer in this repository is a pure function of its canonical key —
// must be byte-identical to what the pipe transport (handle_line)
// produces for the same request, which each child verifies against its
// own private PlanningService.
//
// Fork discipline: the children are forked BEFORE the parent constructs
// the PlanningService/ShmServer (both spawn threads; forking a threaded
// process leaves the child's heap locks in undefined hands). Children
// wait for the segment to appear, then are free to spawn their own
// threads. Skipped under ThreadSanitizer, which cannot follow forked
// children; the in-process concurrency tests in
// service_shm_transport_test.cpp are the TSan subjects.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ayd/service/server.hpp"
#include "ayd/service/shm_transport.hpp"

#if defined(__SANITIZE_THREAD__)
#define AYD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AYD_TSAN 1
#endif
#endif

namespace ayd::service {
namespace {

constexpr int kClients = 4;
constexpr int kScenarios = 64;

int requests_per_client() {
  // >= 10k requests total by default; AYD_SCALE=quick keeps developer
  // runs snappy (the cheap `plan` op still makes the full count fast,
  // but CI is where the full load matters).
  const char* scale = std::getenv("AYD_SCALE");
  if (scale != nullptr && std::string(scale) == "quick") return 500;
  return 2600;
}

/// The request of (client, i): round-robin over kScenarios distinct
/// plan problems, so each child's stream starts cold and turns warm,
/// and concurrent children race cold misses on the same keys
/// (single-flight) as well as warm hits.
std::string request_line(int client, int i) {
  const int scenario = i % kScenarios;
  return R"({"op":"plan","id":"c)" + std::to_string(client) + "-" +
         std::to_string(i) + R"(","platform":)" +
         (scenario % 2 == 0 ? R"("hera")" : R"("atlas")") +
         R"(,"work":)" + std::to_string(1 + scenario / 2) + "e17}";
}

/// Child body: attach, fire, verify, detach, _Exit(0) on success. Any
/// mismatch or transport error exits non-zero (the parent's waitpid
/// asserts).
[[noreturn]] void run_client(const std::string& name, int client) {
  try {
    // Wait out the parent's server construction.
    std::unique_ptr<ShmClient> shm;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      try {
        shm = std::make_unique<ShmClient>(name);
        break;
      } catch (const ShmError&) {
        if (std::chrono::steady_clock::now() >= deadline) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    // The private reference service: what the pipe transport would
    // answer. Determinism makes this comparison exact across processes.
    PlanningService reference({.threads = 1, .cache_dir = ""});
    const int n = requests_per_client();
    for (int i = 0; i < n; ++i) {
      const std::string line = request_line(client, i);
      const std::string reply = shm->call(line);
      const std::string id_token =
          "\"id\":\"c" + std::to_string(client) + "-" + std::to_string(i) +
          "\"";
      if (reply.find(id_token) == std::string::npos) {
        std::fprintf(stderr, "client %d: reply lost its id: %s\n", client,
                     reply.c_str());
        std::_Exit(3);
      }
      if (reply != reference.handle_line(line)) {
        std::fprintf(stderr,
                     "client %d: shm reply diverged from pipe reply for "
                     "%s\n  shm:  %s\n",
                     client, line.c_str(), reply.c_str());
        std::_Exit(4);
      }
    }
    // _Exit skips destructors: detach explicitly, or the server's
    // housekeeping may reap this exited pid as a dead client before the
    // parent reads stats().
    shm.reset();
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client: %s\n", e.what());
    std::_Exit(2);
  }
}

TEST(ShmStress, FourProcessesTenThousandRequestsByteIdenticalToPipe) {
#ifdef AYD_TSAN
  GTEST_SKIP() << "fork-based stress is not TSan-compatible; the "
                  "in-process ring races cover the TSan tier";
#endif
  const std::string name = "stress" + std::to_string(::getpid());

  std::vector<pid_t> children;
  children.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) run_client(name, c);  // never returns
    children.push_back(pid);
  }

  // Threads may exist only after every fork.
  PlanningService service({.threads = 0, .cache_dir = ""});
  ShmOptions options;
  options.request_slots = 64;
  ShmServer server(name, service, options);

  bool all_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      all_ok = false;
      ADD_FAILURE() << "client pid " << pid << " failed with status "
                    << status;
    }
  }
  EXPECT_TRUE(all_ok);
  EXPECT_GE(server.stats().requests,
            static_cast<std::uint64_t>(kClients * requests_per_client()));
  EXPECT_EQ(server.stats().reclaimed_clients, 0u);
  EXPECT_EQ(server.stats().dropped_replies, 0u);
}

}  // namespace
}  // namespace ayd::service
