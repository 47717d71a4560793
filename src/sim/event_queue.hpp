// Time-ordered event queue: the heart of the discrete-event kernel.
//
// Events are (tick, key, sequence, callback). The key breaks same-tick ties:
// with schedule seed 0 (the default) it equals the sequence number, so events
// scheduled for the same tick fire in scheduling order and every simulation
// is bit-reproducible and independent of queue internals. A nonzero schedule
// seed replaces the key with a SplitMix64 hash of (seed, seq), firing
// same-tick events in a deterministically permuted order — a different but
// equally legal serialization of concurrent activity. Events pushed on an
// ordering channel (push_channel) share a key per channel, so a seed can
// never reorder a point-to-point FIFO link. Sweeping seeds is how the test
// suite explores protocol interleavings (docs/TESTING.md).
//
// Representation: a timing wheel. The window [base, base + kSpan) holds one
// slot per tick, where base is the tick firing now (or last fired). A slot
// is an intrusive FIFO list of nodes from one free-listed pool, so the
// steady state allocates nothing. A push into the window appends to its
// slot; the next occupied slot is found through a two-level 64 x 64
// occupancy bitmap. Both are constant time. An event beyond the window, or
// earlier than base (only the raw queue allows that; Simulator forbids
// scheduling into the past), waits in the far heap, ordered by
// (tick, key, seq). Whenever base advances, the far events the window now
// covers move onto their slots in heap order, before any push can reach
// those ticks directly. Events earlier than base fire straight from the
// heap, ahead of the whole window.
//
// Order contract: events fire in the total order (tick, key, seq), under
// every schedule seed. Under seed 0, key == seq and a slot's list is in seq
// order: its migrated events were pushed before the tick entered the
// window, and they migrate in seq order. Under a nonzero seed, a slot is
// sorted by (key, seq) when its tick starts firing, and a push for the
// firing tick is inserted into the unfired tail at its (key, seq) place.
// tests/test_event_repr.cpp checks the firing order against a plain binary
// heap of every event (the oracle) under schedule-seed sweeps, including
// pushes at the window's edges and beyond it.
//
// kSpan is 4096 ticks, above the furthest push of the benchmark workloads
// (2560 ticks on the 512-node WBI ones); a longer push is only slower.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {

/// Min-queue of events ordered by (tick, key, seq).
class EventQueue {
 public:
  /// Ticks the wheel covers: a push less than kSpan ticks after the firing
  /// tick goes straight onto its slot. A power of two, at most 64 x 64.
  static constexpr std::size_t kSpan = 4096;

  /// Selects the same-tick tie-break policy. Seed 0 restores strict FIFO
  /// (scheduling order); any other seed fires same-tick events in a
  /// deterministic pseudo-random permutation. Must be set before the first
  /// push — changing the policy mid-queue would reorder already-keyed events.
  void set_schedule_seed(std::uint64_t seed) noexcept { schedule_seed_ = seed; }
  [[nodiscard]] std::uint64_t schedule_seed() const noexcept { return schedule_seed_; }

  /// Schedules `fn` to fire at absolute time `at`. Returns the event's
  /// unique sequence number (usable for debugging; events cannot be
  /// cancelled — cancellation is modeled by the callback checking a flag,
  /// which keeps the queue trivially correct).
  std::uint64_t push(Tick at, EventFn fn) {
    const std::uint64_t seq = next_seq_++;
    insert(at, tie_key(seq), seq, std::move(fn));
    return seq;
  }

  /// Like push(), but ties the event to an ordering channel: same-tick
  /// events on the same channel always fire in scheduling order, under any
  /// schedule seed. The network uses one channel per (src, dst, unit) so a
  /// seed permutes genuinely concurrent activity but can never reorder two
  /// messages on one point-to-point link — hardware keeps those FIFO, and
  /// the protocols rely on it.
  std::uint64_t push_channel(Tick at, std::uint64_t channel, EventFn fn) {
    const std::uint64_t seq = next_seq_++;
    insert(at, channel_key(channel, seq), seq, std::move(fn));
    return seq;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Tick next_tick() const noexcept {
    assert(!empty() && "EventQueue::next_tick() on an empty queue");
    if (!far_.empty()) {
      const Tick f = far_.front().at;
      if (f < base_ || top_ == 0) return f;
    }
    const std::size_t i = slot_of(base_);
    return base_ + ((next_occupied(i) - i) & kMask);
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] std::pair<Tick, EventFn> pop() {
    assert(!empty() && "EventQueue::pop() on an empty queue");
    if (!far_.empty()) {
      const Tick f = far_.front().at;
      if (f < base_) return pop_far();
      if (top_ == 0) advance(f);  // only far events left: the window jumps
    }
    std::size_t i = slot_of(base_);
    if (!occupied(i)) {
      const std::size_t j = next_occupied(i);
      advance(base_ + ((j - i) & kMask));
      i = j;
    }
    if (!firing_) {
      // Seed 0 appends in seq order with key == seq: already sorted.
      if (schedule_seed_ != 0) sort_slot(i);
      firing_ = true;
    }
    return take_head(i);
  }

  /// Empties the queue and resets the sequence counter, so a cleared queue
  /// fires future same-tick events under the same tie-break keys as a fresh
  /// one (reused Machines must replay bit-identically). The schedule seed is
  /// kept — clear() resets contents, not policy.
  void clear() noexcept {
    nodes_.clear();
    free_ = kNil;
    far_.clear();
    slots_.fill(Slot{});
    occ_.fill(0);
    top_ = 0;
    base_ = 0;
    firing_ = false;
    size_ = 0;
    next_seq_ = 0;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMask = kSpan - 1;
  static_assert(std::has_single_bit(kSpan) && kSpan <= 64 * 64);

  /// One pending event: a pool entry, linked into a slot's list or
  /// pointed at by the far heap while it waits, and into the free list
  /// once fired.
  struct Node {
    Node(std::uint64_t k, std::uint64_t s, EventFn&& f) noexcept
        : key(k), seq(s), fn(std::move(f)) {}
    std::uint64_t key;  ///< same-tick tie-break (== seq when seed is 0)
    std::uint64_t seq;  ///< final tie-break: keys may collide, seqs cannot
    EventFn fn;
    std::uint32_t next = kNil;
  };
  /// A slot's list; head == kNil exactly when the slot's bitmap bit is clear.
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// Far-heap entry: an event outside the window.
  struct FarItem {
    Tick at;
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t node;
  };
  /// Comparator for std::push_heap (max-heap semantics -> invert to min).
  struct FarLater {
    bool operator()(const FarItem& a, const FarItem& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  /// Ascending (key, seq) within one tick.
  [[nodiscard]] static bool earlier(const Node& a, const Node& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  [[nodiscard]] static std::size_t slot_of(Tick t) noexcept {
    return static_cast<std::size_t>(t) & kMask;
  }
  [[nodiscard]] bool occupied(std::size_t i) const noexcept {
    return ((occ_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  void mark(std::size_t i) noexcept {
    occ_[i >> 6] |= std::uint64_t{1} << (i & 63);
    top_ |= std::uint64_t{1} << (i >> 6);
  }
  void unmark(std::size_t i) noexcept {
    if ((occ_[i >> 6] &= ~(std::uint64_t{1} << (i & 63))) == 0) {
      top_ &= ~(std::uint64_t{1} << (i >> 6));
    }
  }

  /// First occupied slot from `i` on, wrapping round: the slot of the
  /// earliest tick on the wheel when i is base's slot. Precondition: the
  /// wheel is not empty (top_ != 0).
  [[nodiscard]] std::size_t next_occupied(std::size_t i) const noexcept {
    const std::size_t w = i >> 6;
    const std::uint64_t here = occ_[w] & (~std::uint64_t{0} << (i & 63));
    if (here != 0) return (w << 6) | static_cast<std::size_t>(std::countr_zero(here));
    const std::uint64_t later = top_ & (~std::uint64_t{1} << w);  // words after w
    const auto w2 = static_cast<std::size_t>(std::countr_zero(later != 0 ? later : top_));
    return (w2 << 6) | static_cast<std::size_t>(std::countr_zero(occ_[w2]));
  }

  void insert(Tick at, std::uint64_t key, std::uint64_t seq, EventFn&& fn) {
    ++size_;
    const std::uint32_t n = acquire_node(key, seq, std::move(fn));
    if (at - base_ >= kSpan) {  // beyond the window, or (wrapped) before base
      far_.push_back(FarItem{at, key, seq, n});
      std::push_heap(far_.begin(), far_.end(), FarLater{});
    } else if (at == base_ && firing_ && schedule_seed_ != 0) {
      // Same-tick push while this tick is firing: merge into the unfired
      // tail at its (key, seq) position, exactly where the order puts it.
      insert_sorted(slot_of(at), n);
    } else {
      append(slot_of(at), n);
    }
  }

  std::uint32_t acquire_node(std::uint64_t key, std::uint64_t seq, EventFn&& fn) {
    if (free_ != kNil) {
      const std::uint32_t n = free_;
      Node& node = nodes_[n];
      free_ = node.next;
      node.key = key;
      node.seq = seq;
      node.fn = std::move(fn);
      return n;
    }
    nodes_.emplace_back(key, seq, std::move(fn));
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void append(std::size_t i, std::uint32_t n) noexcept {
    Slot& s = slots_[i];
    nodes_[n].next = kNil;
    if (s.head == kNil) {
      s.head = n;
      mark(i);
    } else {
      nodes_[s.tail].next = n;
    }
    s.tail = n;
  }

  /// Links `n` before the first node of slot `i` that orders after it.
  void insert_sorted(std::size_t i, std::uint32_t n) noexcept {
    Slot& s = slots_[i];
    std::uint32_t prev = kNil;
    std::uint32_t cur = s.head;
    while (cur != kNil && !earlier(nodes_[n], nodes_[cur])) {
      prev = cur;
      cur = nodes_[cur].next;
    }
    nodes_[n].next = cur;
    if (prev == kNil) {
      s.head = n;
      mark(i);
    } else {
      nodes_[prev].next = n;
    }
    if (cur == kNil) s.tail = n;
  }

  /// Sorts slot `i`'s list by (key, seq), through a reused scratch vector.
  void sort_slot(std::size_t i) {
    Slot& s = slots_[i];
    sort_scratch_.clear();
    for (std::uint32_t n = s.head; n != kNil; n = nodes_[n].next) sort_scratch_.push_back(n);
    std::sort(sort_scratch_.begin(), sort_scratch_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return earlier(nodes_[a], nodes_[b]); });
    for (std::size_t k = 0; k + 1 < sort_scratch_.size(); ++k) {
      nodes_[sort_scratch_[k]].next = sort_scratch_[k + 1];
    }
    s.head = sort_scratch_.front();
    s.tail = sort_scratch_.back();
    nodes_[s.tail].next = kNil;
  }

  /// Moves base forward to `t`, the earliest pending tick, and the far
  /// events the window now covers onto the wheel, in heap order.
  void advance(Tick t) {
    base_ = t;
    firing_ = false;
    while (!far_.empty() && far_.front().at - base_ < kSpan) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      const FarItem item = far_.back();
      far_.pop_back();
      append(slot_of(item.at), item.node);
    }
  }

  std::pair<Tick, EventFn> take_head(std::size_t i) {
    Slot& s = slots_[i];
    const std::uint32_t n = s.head;
    Node& node = nodes_[n];
    s.head = node.next;
    if (s.head == kNil) unmark(i);
    std::pair<Tick, EventFn> p{base_, std::move(node.fn)};
    release_node(n);
    return p;
  }

  /// Fires the far heap's earliest event, which is earlier than base.
  std::pair<Tick, EventFn> pop_far() {
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    const FarItem item = far_.back();
    far_.pop_back();
    std::pair<Tick, EventFn> p{item.at, std::move(nodes_[item.node].fn)};
    release_node(item.node);
    return p;
  }

  void release_node(std::uint32_t n) noexcept {
    nodes_[n].next = free_;
    free_ = n;
    --size_;
  }

  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const noexcept {
    if (schedule_seed_ == 0) return seq;
    // SplitMix64 over (seed, seq): a high-quality deterministic hash, so
    // every seed induces an independent-looking same-tick permutation.
    return SplitMix64(schedule_seed_ ^ (seq * 0x9e3779b97f4a7c15ULL)).next();
  }

  /// Events on one channel share a key, so a seed never reorders them.
  [[nodiscard]] std::uint64_t channel_key(std::uint64_t channel,
                                          std::uint64_t seq) const noexcept {
    return (schedule_seed_ == 0)
               ? seq
               : SplitMix64(schedule_seed_ ^ (channel * 0x9e3779b97f4a7c15ULL)).next();
  }

  std::vector<Node> nodes_;                  ///< node pool (index-stable)
  std::uint32_t free_ = kNil;                ///< free list through Node::next
  std::vector<FarItem> far_;                 ///< min-heap of events off the wheel
  std::vector<std::uint32_t> sort_scratch_;  ///< sort_slot's buffer, reused
  std::array<Slot, kSpan> slots_{};          ///< slot of tick t: t & kMask
  std::array<std::uint64_t, kSpan / 64> occ_{};  ///< bit i: slot i is occupied
  std::uint64_t top_ = 0;                    ///< bit w: occ_[w] != 0
  Tick base_ = 0;                            ///< the window's first tick
  bool firing_ = false;                      ///< base's slot has started firing
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t schedule_seed_ = 0;
};

}  // namespace bcsim::sim
