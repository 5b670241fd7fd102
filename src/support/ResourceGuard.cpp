//===- support/ResourceGuard.cpp - Budgets, guards, fault injection --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/ResourceGuard.h"

using namespace jslice;

std::atomic<bool> FaultInjection::Observing{false};
std::atomic<uint64_t> FaultInjection::FailAt{0};
std::atomic<uint64_t> FaultInjection::Count{0};
std::atomic<const char *> FaultInjection::LastSite{""};

void FaultInjection::arm(uint64_t FailAtCheckpoint) {
  Observing.store(true, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  LastSite.store("", std::memory_order_relaxed);
  FailAt.store(FailAtCheckpoint, std::memory_order_release);
}

void FaultInjection::disarm() { FailAt.store(0, std::memory_order_release); }

bool FaultInjection::armed() {
  return FailAt.load(std::memory_order_acquire) != 0;
}

uint64_t FaultInjection::observedCheckpoints() {
  return Count.load(std::memory_order_relaxed);
}

void FaultInjection::resetCount() {
  Observing.store(true, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
}

bool FaultInjection::countAndTest(const char *Site, uint64_t SiteCount) {
  (void)SiteCount;
  uint64_t Seen = Count.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t At = FailAt.load(std::memory_order_acquire);
  if (At == 0 || Seen != At)
    return false;
  LastSite.store(Site, std::memory_order_relaxed);
  return true;
}

const char *FaultInjection::trippedSite() {
  return LastSite.load(std::memory_order_relaxed);
}
