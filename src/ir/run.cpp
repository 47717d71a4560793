#include "ir/run.hpp"

#include <exception>
#include <memory>
#include <stdexcept>

#include "core/machine.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"
#include "core/sync/semaphore.hpp"
#include "workload/access.hpp"

namespace bcsim::ir {

namespace {

/// Addresses and sync objects for one run, allocated in declaration order.
struct Layout {
  std::vector<Addr> loc_addr;
  std::vector<std::uint8_t> rides_lock;
  std::vector<std::unique_ptr<sync::Mutex>> locks;
  std::vector<std::unique_ptr<sync::CountingSemaphore>> sems;
  std::vector<std::unique_ptr<sync::Barrier>> barriers;

  Layout(const Program& prog, core::Machine& m) {
    auto alloc = m.make_allocator();
    const auto& cfg = m.config();
    const auto participants = static_cast<std::uint32_t>(prog.threads.size());
    loc_addr.assign(prog.n_locations, 0);
    rides_lock.assign(prog.n_locations, 0);
    for (const Object& o : prog.objects) {
      switch (o.kind) {
        case ObjKind::kBlocks:
          for (std::uint32_t k = 0; k < o.count; ++k) {
            loc_addr[o.first + k] = alloc.alloc_blocks(1);
          }
          break;
        case ObjKind::kWords: {
          const Addr base = alloc.alloc_words(o.count);
          for (std::uint32_t k = 0; k < o.count; ++k) loc_addr[o.first + k] = base + k;
          break;
        }
        case ObjKind::kLock: {
          locks.push_back(sync::make_mutex(cfg.lock_impl, alloc, cfg.n_nodes));
          const sync::Mutex& lock = *locks.back();
          // Words 1..block_words-1 of a lock block that rides the grant.
          for (std::uint32_t k = 0; k < o.count; ++k) {
            const std::uint32_t loc = o.first + k;
            if (lock.data_rides_lock() && k + 1 < cfg.block_words) {
              loc_addr[loc] = lock.lock_addr() + 1 + k;
              rides_lock[loc] = 1;
            } else {
              loc_addr[loc] = alloc.alloc_blocks(1);
            }
          }
          break;
        }
        case ObjKind::kSemaphore:
          sems.push_back(std::make_unique<sync::CountingSemaphore>(cfg.lock_impl, alloc,
                                                                   cfg.n_nodes, o.value));
          m.poke_memory(sems.back()->count_addr(), o.value);
          break;
        case ObjKind::kBarrier:
          barriers.push_back(sync::make_barrier(cfg.barrier_impl, alloc, participants));
          break;
      }
    }
  }
};

sim::Task interpret(core::Processor& p, const std::vector<Op>& code, Layout& lay,
                    std::vector<Observation>& obs) {
  for (std::uint32_t i = 0; i < code.size(); ++i) {
    const Op& op = code[i];
    switch (op.kind) {
      case OpKind::kStore:
        co_await workload::shared_write(p, lay.loc_addr[op.arg], op.value);
        break;
      case OpKind::kLoad: {
        const Word v = co_await workload::shared_read(p, lay.loc_addr[op.arg]);
        if (op.observed) obs.push_back({i, op.arg, v, p.simulator().now()});
        break;
      }
      case OpKind::kLoadOnce: {
        const Word v = co_await workload::shared_read_once(p, lay.loc_addr[op.arg]);
        if (op.observed) obs.push_back({i, op.arg, v, p.simulator().now()});
        break;
      }
      case OpKind::kAwait: {
        const Addr a = lay.loc_addr[op.arg];
        for (;;) {
          const Word v = co_await workload::shared_read(p, a);
          if (v == op.value) break;
          co_await p.wait_word_change(a, v);
        }
        break;
      }
      case OpKind::kFence:
        co_await p.flush_buffer();
        break;
      case OpKind::kUnsub:
        if (p.config().data_protocol == core::DataProtocol::kReadUpdate) {
          const Word gone = co_await p.reset_update(lay.loc_addr[op.arg]);
          (void)gone;
        }
        break;
      case OpKind::kCompute:
        co_await p.compute(op.arg);
        break;
      case OpKind::kLock:
        co_await lay.locks[op.arg]->acquire(p);
        break;
      case OpKind::kUnlock:
        co_await lay.locks[op.arg]->release(p);
        break;
      case OpKind::kBarrier:
        co_await lay.barriers[op.arg]->wait(p);
        break;
      case OpKind::kCsAdd: {
        const bool rides = lay.rides_lock[op.arg] != 0;
        const Addr a = lay.loc_addr[op.arg];
        const Word v = co_await workload::cs_read(p, a, rides);
        co_await workload::cs_write(p, a, v + op.value, rides);
        break;
      }
      case OpKind::kSemP:
        co_await lay.sems[op.arg]->p_op(p);
        break;
      case OpKind::kSemV:
        co_await lay.sems[op.arg]->v_op(p);
        break;
      case OpKind::kReadLock:
        co_await lay.locks[op.arg]->acquire_shared(p);
        break;
      case OpKind::kCsLoad: {
        const Word v =
            co_await workload::cs_read(p, lay.loc_addr[op.arg], lay.rides_lock[op.arg] != 0);
        if (op.observed) obs.push_back({i, op.arg, v, p.simulator().now()});
        break;
      }
      case OpKind::kFetchAdd: {
        const Word old = co_await p.fetch_add(lay.loc_addr[op.arg], op.value);
        (void)old;
        break;
      }
    }
  }
}

}  // namespace

RunResult run_program(const Program& prog, const core::MachineConfig& cfg, Tick budget,
                      std::ostream* trace_tail) {
  if (cfg.n_nodes < prog.threads.size()) {
    throw std::invalid_argument("run_program: '" + prog.name + "' needs " +
                                std::to_string(prog.threads.size()) +
                                " nodes, config has " + std::to_string(cfg.n_nodes));
  }
  RunResult r;
  r.loads.resize(prog.threads.size());

  core::Machine m(cfg);
  Layout lay(prog, m);
  r.loc_addr = lay.loc_addr;
  for (const auto& s : lay.sems) r.sem_addr.push_back(s->count_addr());
  for (std::uint32_t t = 0; t < prog.threads.size(); ++t) {
    m.spawn(interpret(m.processor(t), prog.threads[t], lay, r.loads[t]));
  }
  bool threw = false;
  try {
    r.completion = m.run(budget);
    r.completed = m.all_done() && m.quiescent();
    if (!r.completed) r.error = "programs stuck or protocol not quiescent";
  } catch (const std::exception& ex) {
    r.completion = m.simulator().now();
    r.error = ex.what();
    threw = true;
  }
  r.digest = m.stats_digest();
  sim::Fnv1a data;
  for (const auto& thread : r.loads) {
    data.u64(thread.size());
    for (const Observation& o : thread) data.u64(o.value);
  }
  data.u64(m.data_digest());
  r.data = data.h;
  if (trace_tail != nullptr && cfg.trace) m.dump_trace(*trace_tail);
  if (threw) return r;

  for (const Addr a : r.loc_addr) r.final_locs.push_back(m.peek_coherent(a));
  for (const Addr a : r.sem_addr) r.final_sems.push_back(m.peek_coherent(a));
  return r;
}

}  // namespace bcsim::ir
