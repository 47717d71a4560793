// Shared-data access helpers that dispatch on the configured data protocol.
//
// The paper's division of labor makes the *software* responsible for
// choosing the right primitive per access (section 3). These helpers encode
// the canonical choices so workloads stay protocol-agnostic:
//
//   * WBI machine: plain READ/WRITE are the coherent operations.
//   * read-update machine:
//       - reads of producer/consumer data subscribe with READ-UPDATE
//         (updates are pushed thereafter);
//       - one-shot reads use READ-GLOBAL (bypass, always fresh);
//       - shared writes use WRITE-GLOBAL (buffered under BC);
//       - accesses to data colocated with a held CBL lock are plain local
//         READ/WRITE — the data rides the lock, and the unlock writes the
//         block back (the paper's critical-section locality argument).
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/processor.hpp"
#include "sim/task.hpp"

namespace bcsim::workload {

using core::DataProtocol;
using core::Processor;

/// One data reference of the section 5.2 models (paper Table 4 mix).
struct DataReference {
  bool shared = false;  ///< false: a private reference (Processor::private_access)
  bool read = false;    ///< shared only: a read, else a write of `value`
  Addr addr = 0;        ///< shared only
  Word value = 0;       ///< shared write only
};

/// Draws a reference: shared with probability `shared_ratio`, then for a
/// shared one a block of `shared_blocks`, a word in it, read with
/// probability `read_ratio`, and a write's value, in that order. A plain
/// function, not a coroutine: the caller co_awaits the primitive itself,
/// so a reference costs no coroutine frame (private_access() then draws
/// its own hit).
inline DataReference draw_reference(Processor& p, double shared_ratio, double read_ratio,
                                    const std::vector<Addr>& shared_blocks) {
  auto& rng = p.rng();
  DataReference r;
  if (!rng.chance(shared_ratio)) return r;
  r.shared = true;
  const Addr base = shared_blocks[rng.next_below(shared_blocks.size())];
  r.addr = base + rng.next_below(p.config().block_words);
  r.read = rng.chance(read_ratio);
  if (!r.read) r.value = rng.next_u64();
  return r;
}

/// Read shared data that will be read again (worth a subscription).
inline core::OpAwaiter shared_read(Processor& p, Addr a) {
  return p.config().data_protocol == DataProtocol::kReadUpdate ? p.read_update(a)
                                                               : p.read(a);
}

/// Read shared data once (no subscription; always-fresh value).
inline core::OpAwaiter shared_read_once(Processor& p, Addr a) {
  return p.config().data_protocol == DataProtocol::kReadUpdate ? p.read_global(a)
                                                               : p.read(a);
}

/// Write shared data (globally visible; buffered under BC).
inline core::OpAwaiter shared_write(Processor& p, Addr a, Word v) {
  return p.config().data_protocol == DataProtocol::kReadUpdate ? p.write_global(a, v)
                                                               : p.write(a, v);
}

/// Read inside a critical section. `rides_lock` says the word lives in the
/// block of the held CBL lock (delivered by the grant).
inline core::OpAwaiter cs_read(Processor& p, Addr a, bool rides_lock) {
  if (p.config().data_protocol != DataProtocol::kReadUpdate) return p.read(a);
  return rides_lock ? p.read(a) : p.read_global(a);
}

/// Write inside a critical section. Writes to non-lock-resident data use
/// WRITE-GLOBAL; the CP-Synch flush at unlock makes them visible in order.
inline core::OpAwaiter cs_write(Processor& p, Addr a, Word v, bool rides_lock) {
  if (p.config().data_protocol != DataProtocol::kReadUpdate) return p.write(a, v);
  return rides_lock ? p.write(a, v) : p.write_global(a, v);
}

}  // namespace bcsim::workload
