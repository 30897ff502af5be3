// Crash robustness of the shared-memory transport:
//  * a client SIGKILLed mid-request/mid-reply-read is reaped by the
//    server's housekeeping (slot reclaimed, in-flight replies dropped)
//    while other clients stay unperturbed;
//  * a segment left behind by a SIGKILLed *server* is detected as stale
//    and recovered by the next server start, while a *live* server's
//    segment is refused.
//
// Fork discipline as in service_shm_stress_test.cpp: all children fork
// before the parent creates any threads. Skipped under ThreadSanitizer
// (fork-based).

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
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

using namespace std::chrono_literals;

/// Attaches with a retry window (the segment appears only once the
/// parent/child server finishes constructing).
std::unique_ptr<ShmClient> attach_with_retry(const std::string& name) {
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  for (;;) {
    try {
      return std::make_unique<ShmClient>(name);
    } catch (const ShmError&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(10ms);
    }
  }
}

/// Victim body: attach and hammer requests until SIGKILLed. The kill
/// lands at an arbitrary point of the call cycle — mid-push,
/// mid-compute-wait, or mid-reply-read.
[[noreturn]] void run_victim(const std::string& name) {
  try {
    auto client = attach_with_retry(name);
    for (std::uint64_t i = 0;; ++i) {
      (void)client->call(R"({"op":"plan","id":)" + std::to_string(i) +
                         R"(,"platform":"hera","work":1e18})");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "victim: %s\n", e.what());
    std::_Exit(2);
  }
}

TEST(ShmCrash, SigkilledClientIsReclaimedAndOthersUnperturbed) {
#ifdef AYD_TSAN
  GTEST_SKIP() << "fork-based crash test is not TSan-compatible";
#endif
  const std::string name = "crash" + std::to_string(::getpid());

  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) run_victim(name);  // never returns

  // With exactly 2 client slots, the survivor below can only attach if
  // the victim's slot is actually reclaimed.
  PlanningService service({.threads = 2, .cache_dir = ""});
  ShmOptions options;
  options.max_clients = 2;
  ShmServer server(name, service, options);

  // A well-behaved survivor shares the segment for the whole episode.
  ShmClient survivor(name);
  const std::string probe =
      R"({"op":"plan","id":"s","platform":"atlas","work":2e18})";
  const std::string expected = survivor.call(probe);

  // Let the victim get a healthy stream going, then kill it mid-flight.
  std::this_thread::sleep_for(200ms);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Housekeeping reaps the dead pid and frees the slot.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.stats().reclaimed_clients == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never reclaimed the killed client";
    std::this_thread::sleep_for(5ms);
  }

  // The survivor kept its slot and its answers.
  EXPECT_EQ(survivor.call(probe), expected);

  // The freed slot is reusable: a new client takes the table's second
  // slot (max_clients=2: survivor + this one only fits post-reclaim)
  // and round-trips with the same bytes.
  ShmClient replacement(name);
  EXPECT_EQ(replacement.call(probe), expected);

  EXPECT_GE(server.stats().requests, 2u);
}

/// Server-child body: builds its own service + shm server, then spins
/// until SIGKILLed (leaving the segment behind, pid published).
[[noreturn]] void run_doomed_server(const std::string& name) {
  try {
    PlanningService service({.threads = 1, .cache_dir = ""});
    ShmServer server(name, service);
    for (;;) std::this_thread::sleep_for(50ms);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "doomed server: %s\n", e.what());
    std::_Exit(2);
  }
}

TEST(ShmCrash, KilledServersSegmentIsDetectedStaleAndRecovered) {
#ifdef AYD_TSAN
  GTEST_SKIP() << "fork-based crash test is not TSan-compatible";
#endif
  const std::string name = "stale" + std::to_string(::getpid());
  const std::string path = ShmServer::segment_path(name);

  const pid_t doomed = ::fork();
  ASSERT_GE(doomed, 0);
  if (doomed == 0) run_doomed_server(name);  // never returns

  // Wait until the child's segment is fully published (a client attach
  // succeeding proves pid + geometry are live).
  { auto probe = attach_with_retry(name); }

  PlanningService service({.threads = 1, .cache_dir = ""});

  // While the child lives, its segment is defended.
  try {
    ShmServer conflict(name, service);
    FAIL() << "serving over a live server must refuse";
  } catch (const ShmError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(e.reason().find("already served by live pid"),
              std::string::npos)
        << e.reason();
  }

  // SIGKILL the server: no destructor, no unlink — the stale-segment
  // signature.
  ASSERT_EQ(::kill(doomed, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(doomed, &status, 0), doomed);
  ASSERT_TRUE(WIFSIGNALED(status));
  struct ::stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0)
      << "the killed server must leave its segment behind";

  // The next start detects the dead pid, recovers, and serves.
  ShmServer recovered(name, service);
  EXPECT_TRUE(recovered.stats().recovered_stale);
  ShmClient client(name);
  const std::string reply =
      client.call(R"({"op":"stats","id":1})");
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
}

}  // namespace
}  // namespace ayd::service
