//===- support/LazyBuild.h - Build-on-first-use, retry on failure ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value built on first use by whichever caller needs it first, under
/// that caller's resource guard. Unlike std::call_once, a build may
/// fail — its guard tripped — and then nothing is kept: the next caller
/// builds again under its own guard. A successful build is published
/// once and never changes, so readers after it take one acquire load
/// and no lock.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_LAZYBUILD_H
#define JSLICE_SUPPORT_LAZYBUILD_H

#include <atomic>
#include <memory>
#include <mutex>

namespace jslice {

template <typename T> class LazyBuild {
public:
  /// The built value, or null while no build has succeeded.
  const T *get() const { return Ready.load(std::memory_order_acquire); }

  /// The built value, running \p Build (returning std::unique_ptr<T>,
  /// null for a failed build) if there is none yet. Builders serialize
  /// on a mutex, so concurrent first callers build once; a failed build
  /// returns null and leaves the slot empty.
  template <typename BuildFn> const T *getOrBuild(BuildFn &&Build) {
    if (const T *V = get())
      return V;
    std::lock_guard<std::mutex> Lock(M);
    if (const T *V = Ready.load(std::memory_order_relaxed))
      return V;
    Owned = Build();
    Ready.store(Owned.get(), std::memory_order_release);
    return Owned.get();
  }

private:
  std::mutex M;
  std::unique_ptr<T> Owned;
  std::atomic<const T *> Ready{nullptr};
};

} // namespace jslice

#endif // JSLICE_SUPPORT_LAZYBUILD_H
