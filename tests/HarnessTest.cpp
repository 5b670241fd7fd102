//===- tests/HarnessTest.cpp - Scenario harness unit tests ----------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// ServeLog is fed the exact line sequences jslice_serve prints for each
// hot-restart outcome; the leader it reports is what the watchdog and
// the upgrade matrix act on.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include <gtest/gtest.h>

using namespace jslice;
using namespace jslice::harness;

namespace {

ServeLogState feedAll(ServeLog &Log, const std::vector<std::string> &Lines) {
  for (const std::string &L : Lines)
    Log.feed(L);
  return Log.state();
}

/// Generation 1 (pid 100) up and serving on port 4242.
void boot(ServeLog &Log) {
  feedAll(Log, {"jslice_serve: listening on 127.0.0.1:4242",
                "jslice_serve: transport shards: 1 (reuseport)",
                "jslice_serve: generation 1 pid 100"});
}

/// SIGUSR2: generation 2 (pid 200) spawns, listens, and announces.
const std::vector<std::string> SuccessorAnnounces = {
    "jslice_serve: spawning generation 2 (pid 200)",
    "jslice_serve: adopted predecessor's listener fd",
    "jslice_serve: listening on 127.0.0.1:4242",
    "jslice_serve: generation 2 pid 200",
};

} // namespace

TEST(ServeLogTest, BootAnnouncesPortAndLeader) {
  ServeLog Log;
  boot(Log);
  ServeLogState S = Log.state();
  EXPECT_EQ(S.Port, 4242);
  EXPECT_EQ(S.LeaderPid, 100);
  EXPECT_EQ(S.PendingPid, -1);
  EXPECT_EQ(S.Handoffs, 0u);
}

TEST(ServeLogTest, HandoffAdoptsTheSuccessorOnlyWhenReady) {
  ServeLog Log;
  boot(Log);
  ServeLogState S = feedAll(Log, SuccessorAnnounces);
  EXPECT_EQ(S.LeaderPid, 100) << "an announce is not readiness";
  EXPECT_EQ(S.PendingPid, 200);

  S = feedAll(Log, {"jslice_serve: generation 2 (pid 200) ready",
                    "jslice_serve: generation 2 ready; draining generation 1",
                    "jslice_serve: drained and shut down cleanly",
                    "jslice_serve: generation predecessor (pid 100) exited; "
                    "handoff recovery quarantined 0 requests"});
  EXPECT_EQ(S.LeaderPid, 200);
  EXPECT_EQ(S.PendingPid, -1);
  EXPECT_EQ(S.Handoffs, 1u);
  EXPECT_EQ(S.Rollbacks, 0u);
  EXPECT_EQ(S.Port, 4242);
}

TEST(ServeLogTest, RollbackDropsTheUnreadySuccessor) {
  ServeLog Log;
  boot(Log);
  feedAll(Log, SuccessorAnnounces);
  ServeLogState S = feedAll(
      Log, {"jslice_serve: generation 2 failed before readiness; rolling "
            "back to generation 1"});
  EXPECT_EQ(S.LeaderPid, 100);
  EXPECT_EQ(S.PendingPid, -1);
  EXPECT_EQ(S.Rollbacks, 1u);
  EXPECT_EQ(S.Handoffs, 0u);

  // The next upgrade is tracked afresh and can still hand off.
  S = feedAll(Log, {"jslice_serve: spawning generation 2 (pid 300)",
                    "jslice_serve: generation 2 pid 300",
                    "jslice_serve: generation 2 ready; draining generation 1"});
  EXPECT_EQ(S.LeaderPid, 300);
  EXPECT_EQ(S.Handoffs, 1u);
}

TEST(ServeLogTest, RollbackAfterAnEarlierHandoffKeepsTheServingGeneration) {
  ServeLog Log;
  boot(Log);
  feedAll(Log, SuccessorAnnounces);
  feedAll(Log, {"jslice_serve: generation 2 ready; draining generation 1"});
  ServeLogState S = feedAll(
      Log, {"jslice_serve: spawning generation 3 (pid 400)",
            "jslice_serve: generation 3 pid 400",
            "jslice_serve: generation 3 failed before readiness; rolling "
            "back to generation 2"});
  EXPECT_EQ(S.LeaderPid, 200);
  EXPECT_EQ(S.PendingPid, -1);
}

TEST(ServeLogTest, RefusalsCountAndChangeNothingElse) {
  ServeLog Log;
  boot(Log);
  feedAll(Log, SuccessorAnnounces);
  ServeLogState S =
      feedAll(Log, {"jslice_serve: upgrade already in progress; refusing",
                    "jslice_serve: upgrade refused: shutdown in progress"});
  EXPECT_EQ(S.Refusals, 2u);
  EXPECT_EQ(S.LeaderPid, 100);
  EXPECT_EQ(S.PendingPid, 200);
}

TEST(ServeLogTest, SigtermRacingAnUpgradeRollsBackThenDrains) {
  ServeLog Log;
  boot(Log);
  feedAll(Log, SuccessorAnnounces);
  ServeLogState S = feedAll(
      Log, {"jslice_serve: generation 2 failed before readiness; rolling "
            "back to generation 1",
            "jslice_serve: upgrade refused: shutdown in progress",
            "jslice_serve: drained and shut down cleanly"});
  EXPECT_EQ(S.LeaderPid, 100);
  EXPECT_EQ(S.PendingPid, -1);
  EXPECT_EQ(S.Rollbacks, 1u);
  EXPECT_EQ(S.Handoffs, 0u);
}

TEST(ServeLogTest, SetLeaderForgetsTheTreeAndTheNextAnnounceLeads) {
  ServeLog Log;
  boot(Log);
  feedAll(Log, SuccessorAnnounces);
  Log.setLeader(-1);
  ServeLogState S = Log.state();
  EXPECT_EQ(S.LeaderPid, -1);
  EXPECT_EQ(S.PendingPid, -1);
  S = feedAll(Log, {"jslice_serve: generation 1 pid 500"});
  EXPECT_EQ(S.LeaderPid, 500);
  Log.setLeader(600);
  EXPECT_EQ(Log.state().LeaderPid, 600);
}

TEST(ServeLogTest, MalformedLinesAreIgnored) {
  ServeLog Log;
  boot(Log);
  ServeLogState S =
      feedAll(Log, {"jslice_serve: listening on 127.0.0.1:notaport",
                    "jslice_serve: listening on 127.0.0.1:70000",
                    "jslice_serve: spawning generation 2",
                    "jslice_serve: generation 2 readiness self-probe failed",
                    "", "unrelated noise"});
  EXPECT_EQ(S.Port, 4242);
  EXPECT_EQ(S.LeaderPid, 100);
  EXPECT_EQ(S.PendingPid, -1);
}

TEST(AuditTest, ExactlyOnceCountsDuplicatesAndLosses) {
  Audit A("t");
  A.lines({R"({"id":"a","status":"ok","lines":[1]})",
           R"({"id":"b","status":"shed"})",
           R"({"id":"b","status":"ok","lines":[]})"});
  EXPECT_EQ(A.Violations, 0u);
  EXPECT_EQ(A.finishExactlyOnce(2), 1u) << "b answered twice";
  Audit Lost;
  Lost.line(R"({"id":"a","status":"ok","lines":[]})");
  EXPECT_EQ(Lost.finishExactlyOnce(2, 1), 1u) << "the lost one counts";
  Audit Refusal;
  Refusal.line(R"({"id":"r","status":"resource-exhausted","attempts":)"
               R"([{"outcome":"served"}]})");
  EXPECT_EQ(Refusal.Violations, 1u);
}
