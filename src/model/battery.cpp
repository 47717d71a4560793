#include "model/battery.hpp"

namespace bcsim::model {

using namespace ir;  // the op constructors: St, Ld, Await, ...

namespace {

constexpr std::uint32_t X = 0;
constexpr std::uint32_t Y = 1;

/// A thread that only subscribes to `loc` (lengthening its delivery
/// chain) without contributing to the outcome.
std::vector<Op> bystander(std::uint32_t loc) { return {LdQuiet(loc)}; }

}  // namespace

std::vector<Program> litmus_battery() {
  std::vector<Program> b;

  // --- message passing ------------------------------------------------
  // Bystanders subscribe to the data block only; the reader subscribes
  // first (thread order = warmup order), so it sits at the tail of x's
  // delivery chain but alone on y's — without a fence the flag can
  // overtake the data (the weak outcome t1:y=1 t1:x=0).
  b.push_back(litmus("mp",
                     "message passing, no fence: flag may overtake data",
                     2, 0,
                     {{St(X, 42), St(Y, 1)},
                      {Await(Y, 1), Ld(X)},
                      bystander(X), bystander(X), bystander(X)}));
  b.push_back(litmus("mp-fence",
                     "message passing with CP-Synch flush: data before flag",
                     2, 0,
                     {{St(X, 42), Fence(), St(Y, 1)},
                      {Await(Y, 1), Ld(X)},
                      bystander(X), bystander(X), bystander(X)}));
  b.push_back(litmus("mp-global",
                     "message passing, reader uses READ-GLOBAL: buffer drain may reorder",
                     2, 0,
                     {{St(X, 42), St(Y, 1)}, {LdOnce(Y), LdOnce(X)}}));
  b.push_back(litmus("mp-global-fence",
                     "READ-GLOBAL reader, fenced writer: home order is write order",
                     2, 0,
                     {{St(X, 42), Fence(), St(Y, 1)}, {LdOnce(Y), LdOnce(X)}}));

  // --- store buffering / load buffering -------------------------------
  // Both stores sit in write buffers while both loads read below them:
  // (0,0) is the BC-allowed outcome an SC machine can never produce.
  b.push_back(litmus("sb",
                     "store buffering: both loads may miss both stores under BC",
                     2, 0,
                     {{St(X, 1), Ld(Y)}, {St(Y, 1), Ld(X)}}));
  b.push_back(litmus("sb-fence",
                     "store buffering with flushes: SC restored, (0,0) forbidden",
                     2, 0,
                     {{St(X, 1), Fence(), Ld(Y)}, {St(Y, 1), Fence(), Ld(X)}}));
  b.push_back(litmus("lb",
                     "load buffering: in-order issue forbids (1,1)",
                     2, 0,
                     {{Ld(Y), St(X, 1)}, {Ld(X), St(Y, 1)}}));

  // --- S and R shapes --------------------------------------------------
  b.push_back(litmus("s",
                     "S: store-store vs load-store; coherence order decides final x",
                     2, 0,
                     {{St(X, 2), St(Y, 1)}, {Ld(Y), St(X, 1)}}));
  b.push_back(litmus("r",
                     "R: store-store vs store-load; coherence order decides final y",
                     2, 0,
                     {{St(X, 1), St(Y, 2)}, {St(Y, 1), Ld(X)}}));

  // --- independent reads of independent writes ------------------------
  // Asymmetric chains (bystanders on x) let the two readers disagree on
  // the order of the writes; BC is not multi-copy atomic, so reader
  // fences do not close the window either.
  b.push_back(litmus("iriw",
                     "IRIW: readers may disagree on the order of independent writes",
                     2, 0,
                     {{St(X, 1)}, {St(Y, 1)},
                      {Await(X, 1), Ld(Y)}, {Await(Y, 1), Ld(X)},
                      bystander(X), bystander(X)}));
  b.push_back(litmus("iriw-fence",
                     "IRIW with reader fences: still allowed (BC is not multi-copy atomic)",
                     2, 0,
                     {{St(X, 1)}, {St(Y, 1)},
                      {Await(X, 1), Fence(), Ld(Y)}, {Await(Y, 1), Fence(), Ld(X)},
                      bystander(X), bystander(X)}));

  // --- per-location coherence ------------------------------------------
  b.push_back(litmus("corr",
                     "read-read coherence: a reader's view never goes backwards",
                     1, 0,
                     {{St(X, 1)}, {Ld(X), Ld(X)}}));
  b.push_back(litmus("co-unsub",
                     "RESET-UPDATE then re-subscribe stays coherent across two stores",
                     1, 0,
                     {{St(X, 1), St(X, 2)}, {Ld(X), Unsub(X), Ld(X)}}));

  // --- locks ------------------------------------------------------------
  // The writer's unlock flushes, so an observer that takes the lock after
  // the writer must see the write; an unsynchronized observer gains
  // nothing and may even see the critical-section store before the
  // pre-lock store (the buffer drains out of order).
  b.push_back(litmus("lock-handoff",
                     "properly locked handoff: reader inside the lock sees 0 or 1, never stale-after-release",
                     1, 1,
                     {{Lock(0), St(X, 1), Unlock(0)}, {Lock(0), Ld(X), Unlock(0)}}));
  b.push_back(litmus("lock-nosync",
                     "unsynchronized observer of a locked writer: CS store may overtake the pre-lock store",
                     2, 1,
                     {{St(X, 1), Lock(0), St(Y, 1), Unlock(0)}, {Await(Y, 1), Ld(X)}}));
  b.push_back(litmus("lock-two",
                     "release of lock b publishes the write under lock a (transitive CP-Synch)",
                     2, 2,
                     {{Lock(0), St(X, 1), Unlock(0), Lock(1), St(Y, 1), Unlock(1)},
                      {Lock(1), Ld(Y), Unlock(1), Lock(0), Ld(X), Unlock(0)}}));

  // --- barriers ---------------------------------------------------------
  b.push_back(litmus("barrier-sb",
                     "SB with a barrier between store and load: only (1,1) survives",
                     2, 0,
                     {{St(X, 1), Bar(), Ld(Y)}, {St(Y, 1), Bar(), Ld(X)}}));
  b.push_back(litmus("barrier-mp",
                     "store before the barrier is visible to everyone after it",
                     1, 0,
                     {{St(X, 7), Bar()}, {Bar(), Ld(X)}}));

  return b;
}

const Program* find_litmus(const std::vector<Program>& battery, const std::string& name) {
  for (const Program& t : battery) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace bcsim::model
