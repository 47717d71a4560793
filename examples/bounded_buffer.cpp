// Bounded buffer (producer/consumer) built from the machine's
// synchronization primitives: two counting semaphores (slots/items — the
// paper's P as NP-Synch, V as CP-Synch) plus a CBL mutex guarding the ring
// indices, which ride the lock block.
//
//   $ ./bounded_buffer [producers] [consumers] [items_per_producer]
//
// Verifies at the end that every produced item was consumed exactly once.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "core/sync/mutex.hpp"
#include "core/sync/semaphore.hpp"

using namespace bcsim;

namespace {

constexpr std::uint32_t kCapacity = 4;

struct Buffer {
  sync::CountingSemaphore& slots;
  sync::CountingSemaphore& items;
  sync::Mutex& mtx;
  Addr head;   // rides the lock block
  Addr tail;   // rides the lock block
  Addr ring;   // kCapacity slots

  sim::Task put(core::Processor& p, Word v) const {
    co_await slots.p_op(p);
    co_await mtx.acquire(p);
    const Word t = co_await p.read(tail);
    co_await p.write(tail, t + 1);
    co_await p.write_global(ring + (t % kCapacity), v);
    co_await mtx.release(p);  // CP-Synch: the slot write is global first
    co_await items.v_op(p);
  }

  sim::Task get(core::Processor& p, Word* out) const {
    co_await items.p_op(p);
    co_await mtx.acquire(p);
    const Word h = co_await p.read(head);
    co_await p.write(head, h + 1);
    *out = co_await p.read_global(ring + (h % kCapacity));
    co_await mtx.release(p);
    co_await slots.v_op(p);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t producers = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3;
  const std::uint32_t consumers = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 3;
  const std::uint32_t per_prod = argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 8;
  const std::uint32_t total = producers * per_prod;

  const auto cfg = conf::build_machine({.nodes = producers + consumers, .flavor = "paper"});
  core::Machine m(cfg);

  auto alloc = m.make_allocator();
  sync::CountingSemaphore slots(cfg.lock_impl, alloc, cfg.n_nodes, kCapacity);
  sync::CountingSemaphore items(cfg.lock_impl, alloc, cfg.n_nodes, 0);
  sync::CblMutex mtx(alloc);
  Buffer buf{slots, items, mtx, mtx.lock_addr() + 1, mtx.lock_addr() + 2,
             alloc.alloc_words(kCapacity)};

  // Consumption tally: each consumed item value marks one cell.
  std::vector<int> consumed(total, 0);

  struct Producer {
    const Buffer& buf;
    std::uint32_t per_prod;
    sim::Task operator()(core::Processor& p) const {
      for (std::uint32_t k = 0; k < per_prod; ++k) {
        co_await buf.put(p, static_cast<Word>(p.id()) * per_prod + k + 1);
        co_await p.compute(20);
      }
    }
  } producer{buf, per_prod};
  struct Consumer {
    const Buffer& buf;
    std::vector<int>& consumed;
    std::uint32_t quota;
    std::uint32_t producers;
    std::uint32_t per_prod;
    sim::Task operator()(core::Processor& p) const {
      for (std::uint32_t k = 0; k < quota; ++k) {
        Word v = 0;
        co_await buf.get(p, &v);
        const Word producer_id = (v - 1) / per_prod;
        const Word index = producer_id * per_prod + ((v - 1) % per_prod);
        ++consumed[index];
        co_await p.compute(35);
      }
    }
  };

  // Consumers split the total; the division must be exact for termination.
  if (total % consumers != 0) {
    std::fprintf(stderr, "items (%u) must divide evenly among consumers (%u)\n", total,
                 consumers);
    return 2;
  }
  std::vector<Consumer> consumer_progs;
  for (std::uint32_t c = 0; c < consumers; ++c) {
    consumer_progs.push_back(Consumer{buf, consumed, total / consumers, producers, per_prod});
  }

  // Semaphore counters need one-time initialization before concurrency.
  struct Init {
    sync::CountingSemaphore& slots;
    sync::CountingSemaphore& items;
    sim::Task operator()(core::Processor& p) const {
      co_await slots.init(p);
      co_await items.init(p);
    }
  } init{slots, items};
  m.spawn(init(m.processor(0)));
  m.run();

  for (std::uint32_t i = 0; i < producers; ++i) m.spawn(producer(m.processor(i)));
  for (std::uint32_t c = 0; c < consumers; ++c) {
    m.spawn(consumer_progs[c](m.processor(producers + c)));
  }
  const Tick t = m.run();

  int exactly_once = 0;
  for (int n : consumed) exactly_once += (n == 1) ? 1 : 0;
  std::printf("%u producers -> %u consumers through a %u-slot buffer: %llu cycles\n",
              producers, consumers, kCapacity, static_cast<unsigned long long>(t));
  std::printf("items consumed exactly once: %d / %u %s\n", exactly_once, total,
              exactly_once == static_cast<int>(total) ? "(all good)" : "(BUG!)");
  return exactly_once == static_cast<int>(total) ? 0 : 1;
}
