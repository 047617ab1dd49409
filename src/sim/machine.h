// Execution-driven machine model: a 5-stage in-order core in front of the
// cache hierarchy.
//
// Workloads drive the machine through an instruction-level interface
// (instr/load/store/branch); the machine accounts cycles with a simple
// in-order pipeline model:
//
//   * one cycle per instruction (CPI 1 when everything hits),
//   * instruction-fetch latency beyond an L1I hit stalls the front-end,
//   * data latency beyond an L1D hit stalls the memory stage,
//   * taken branches pay a fixed resolve bubble,
//   * seed changes drain the pipeline (paper section 5: "empty the pipeline
//     and restore the seed of the incoming SWC"),
//   * cache flushes cost a fixed issue cost plus per invalidated line;
//     per-line flushes (the `flush` instruction) cost more when the line
//     was present - the flush-timing observable.
//
// Fetch is modeled per instruction against the real PC, so instruction-cache
// conflicts (the target of Aciiçmez-style attacks) are simulated, not
// approximated.  Each instruction is a fetch (fetch/fetch_repeat) followed
// by its data or branch side (load_data/load_repeat/store_data/
// resolve_branch/flush_target); instr/load/store/branch/flush_line compose
// the two.  fetch, load_data and store_data report whether the line is now
// resident.  A caller that knows it is, and that nothing has reached that
// L1 since - straight-line code, 8 instructions per 32-byte line, or a
// loop rereading one data line - charges the next same-line fetch or load
// with fetch_repeat()/load_repeat(), the exact cost of the guaranteed hit
// without the probe.  The repeats may be batched: n of them in one call
// equal n separate calls, as long as the batch is charged before the next
// access, flush or reset of that L1.  RepeatIssuer (below) is the one
// implementation of this protocol for an instruction stream: both
// isa::Interpreter::run and sim::Tape::play (tape.h), which replays a
// recorded kernel run, issue their accesses through it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "sim/hierarchy.h"

namespace tsc::sim {

/// Per-machine event counters.
struct MachineStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t drains = 0;
  std::uint64_t seed_changes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t line_flushes = 0;  ///< per-line flush instructions executed

  bool operator==(const MachineStats&) const = default;
};

/// The machine.  Single core, single outstanding access - deliberately the
/// simple automotive profile the paper targets.
class Machine {
 public:
  Machine(HierarchyConfig config, std::shared_ptr<rng::Rng> rng);

  /// Select the software context for subsequent accesses (cache-line
  /// ownership + placement seed selection).  Timing cost of the context
  /// switch itself is modeled by the OS layer via drain().
  void set_process(ProcId proc) { proc_ = proc; }
  [[nodiscard]] ProcId process() const { return proc_; }

  /// Fetch the instruction at `pc` through the L1I: 1 issue cycle plus
  /// any fetch latency beyond an L1I hit.  Returns true when the fetched
  /// line is now resident and a later fetch of the same line, with no L1I
  /// traffic in between, may be charged with fetch_repeat() instead: after
  /// a hit, or a miss whose fill installed the line, and on a TTL L1I only
  /// when its TTLs last at least 2 accesses (Cache::repeat_hits_exact).
  /// fetch, load_data and store_data are always inlined: instr/load/store
  /// compose them, and at call sites that exhaust the compiler's inlining
  /// budget (the unrolled AES rounds) each load would otherwise become two
  /// calls instead of one.
  [[gnu::always_inline]] bool fetch(Addr pc) {
    ++stats_.instructions;
    const HierarchyResult f =
        hierarchy_.access(Port::kInstruction, proc_, pc, false);
    now_ += 1 + (f.latency - latency().l1_hit);
    return f.l1_resident && repeat_fetch_ok_;
  }

  /// `n` fetches that are guaranteed L1I hits on the line the last fetch()
  /// left resident (it returned true and nothing touched the L1I since):
  /// exactly what n fetch() calls would charge - n instructions, n L1I
  /// accesses and hits (with the TTL clock and expiries of n probes),
  /// 1 issue cycle plus the (quantized) hit stall each - without the probe.
  void fetch_repeat(std::uint64_t n) {
    stats_.instructions += n;
    hierarchy_.l1i().repeat_hits(n);
    now_ += n * (1 + repeat_stall_);
  }

  /// The data side of a load reading `ea` (after its fetch).  Returns
  /// true when the line is now resident and a later load of the same line,
  /// with no L1D traffic in between, may be charged with load_repeat()
  /// instead (the same rule as fetch()).
  [[gnu::always_inline]] bool load_data(Addr ea) {
    ++stats_.loads;
    const HierarchyResult d = hierarchy_.access(Port::kData, proc_, ea, false);
    now_ += d.latency - latency().l1_hit;
    return d.l1_resident && repeat_load_ok_;
  }

  /// The data side of `n` loads that are guaranteed L1D hits on the line
  /// the last load_data()/store_data() left resident (it returned true and
  /// nothing touched the L1D since): n loads, n L1D accesses and hits, the
  /// (quantized) hit stall each - exactly n load_data() calls.
  void load_repeat(std::uint64_t n) {
    stats_.loads += n;
    hierarchy_.l1d().repeat_hits(n);
    now_ += n * repeat_stall_;
  }

  /// The data side of a store writing `ea` (after its fetch).  Returns
  /// true when the line is now resident, so that later LOADS of it may be
  /// charged with load_repeat(); a store always probes (it dirties the
  /// line, which repeat_hits does not).
  [[gnu::always_inline]] bool store_data(Addr ea) {
    ++stats_.stores;
    const HierarchyResult d = hierarchy_.access(Port::kData, proc_, ea, true);
    now_ += d.latency - latency().l1_hit;
    return d.l1_resident && repeat_load_ok_;
  }

  /// Resolve a branch (after its fetch); taken branches pay the bubble.
  void resolve_branch(bool taken) {
    ++stats_.branches;
    if (taken) {
      ++stats_.taken_branches;
      now_ += latency().branch_penalty;
    }
  }

  /// The flush side of a per-line flush instruction (after its fetch):
  /// flush the line containing `ea` from every cache level through the
  /// CURRENT process's mapping context.  The flush latency observably
  /// differs for present vs absent lines (Hierarchy::flush_line) - the
  /// Flush+Flush timing channel.  A flushed line may be the one the last
  /// fetch or data access left resident, and on a TTL cache the flush
  /// ticks the expiry clock: charge pending repeats first, and probe again
  /// before any further fetch_repeat()/load_repeat().
  void flush_target(Addr ea) {
    ++stats_.line_flushes;
    const Hierarchy::FlushResult r = hierarchy_.flush_line(proc_, ea);
    now_ += r.latency;
  }

  /// Non-memory instruction at `pc`.
  void instr(Addr pc) { fetch(pc); }

  /// `n` sequential non-memory instructions starting at `pc`, 4 bytes each.
  /// Exactly equivalent to n instr() calls: after each full fetch that
  /// leaves its line resident, the rest of the block inside that line is
  /// charged with fetch_repeat().
  void instr_block(Addr pc, unsigned n) {
    const Addr line_mask = hierarchy_.l1i().geometry().line_bytes() - 1;
    while (n > 0) {
      const bool resident = fetch(pc);
      const Addr rest_of_line = (line_mask - (pc & line_mask)) >> 2;
      pc += 4;
      --n;
      if (!resident) continue;
      const auto k = static_cast<unsigned>(std::min<Addr>(n, rest_of_line));
      fetch_repeat(k);
      pc += 4 * static_cast<Addr>(k);
      n -= k;
    }
  }

  /// Load instruction at `pc` reading `ea`.
  void load(Addr pc, Addr ea) {
    fetch(pc);
    load_data(ea);
  }

  /// Store instruction at `pc` writing `ea`.
  void store(Addr pc, Addr ea) {
    fetch(pc);
    store_data(ea);
  }

  /// Per-line flush instruction at `pc` targeting `ea` (TSISA `flush rs`):
  /// fetch like any instruction, then flush_target(ea).
  void flush_line(Addr pc, Addr ea) {
    fetch(pc);
    flush_target(ea);
  }

  /// Branch instruction at `pc`; taken branches pay the resolve bubble.
  void branch(Addr pc, bool taken) {
    fetch(pc);
    resolve_branch(taken);
  }

  /// Pipeline drain (seed change / context switch / barrier).
  void drain();

  /// Install a new master seed for `proc` in all cache levels.  Models the
  /// hardware cost: drain + seed register updates.
  void set_seed(ProcId proc, Seed master);

  /// Flush all caches, paying the per-line invalidation cost.
  void flush_caches();

  /// Advance time without executing (idle / external delay).
  void advance(Cycles cycles) { now_ += cycles; }

  /// Return the machine to its just-constructed state with the rng reseeded
  /// to `rng_seed`: empty caches, default-seed mappings, time zero, zero
  /// stats, process 1.  Bit-exact with constructing a fresh Machine from
  /// the same config and a fresh rng(rng_seed), but reusing every
  /// allocation - the MachinePool contract behind the MBPTA fresh-machine
  /// protocols.
  void reset(std::uint64_t rng_seed);

  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] const MachineStats& stats() const { return stats_; }
  [[nodiscard]] Hierarchy& hierarchy() { return hierarchy_; }
  [[nodiscard]] const LatencyConfig& latency() const {
    return hierarchy_.latency();
  }

  void reset_stats();

 private:
  Hierarchy hierarchy_;
  std::shared_ptr<rng::Rng> rng_;  ///< shared with the caches; reset() reseeds
  ProcId proc_{1};
  Cycles now_ = 0;
  MachineStats stats_;
  /// Stall of a guaranteed L1 hit beyond l1_hit: nonzero only under
  /// latency quantization.
  Cycles repeat_stall_;
  bool repeat_fetch_ok_;  ///< the L1I's repeat_hits_exact()
  bool repeat_load_ok_;   ///< the L1D's repeat_hits_exact()
};

/// The same-line repeat protocol for one instruction stream.  It issues the
/// stream's fetches and data accesses into a Machine and remembers the L1I
/// line the last fetch left resident and the L1D line the last load or
/// store did.  A fetch or load in that line is a guaranteed hit, counted
/// here and charged with one fetch_repeat()/load_repeat() before the next
/// full probe of that port, before a flush (which can invalidate either
/// line and ticks every TTL clock; both lines are then forgotten) and in
/// finish().  Stores always probe (they dirty the line).  Exact as long as
/// nothing else reaches the machine's L1s while the stream runs - fetches
/// use the L1I, loads and stores the L1D, misses fill the L2 and the L2
/// never back-invalidates - and finish() is called before anyone reads the
/// machine's time or statistics.  Branch outcomes touch no cache: callers
/// resolve them on the machine directly.
class RepeatIssuer {
 public:
  explicit RepeatIssuer(Machine& machine)
      : machine_(machine),
        fetch_shift_(machine.hierarchy().l1i().geometry().offset_bits()),
        data_shift_(machine.hierarchy().l1d().geometry().offset_bits()) {}

  /// Fetch the `n` instructions pc, pc + 4, ... of one L1I line: full
  /// probes until one leaves the line resident, then the rest as repeats.
  void fetch(Addr pc, unsigned n) {
    const Addr line = pc >> fetch_shift_;
    for (; n > 0; --n, pc += 4) {
      if (line == fetch_line_) [[likely]] {
        fetch_repeats_ += n;
        return;
      }
      commit_fetch_repeats();
      fetch_line_ = machine_.fetch(pc) ? line : kNoLine;
    }
  }

  /// The data side of a load reading `ea`.
  void load(Addr ea) {
    const Addr line = ea >> data_shift_;
    if (line == load_line_) {
      ++load_repeats_;
      return;
    }
    commit_load_repeats();
    load_line_ = machine_.load_data(ea) ? line : kNoLine;
  }

  /// The data side of a store writing `ea`.
  void store(Addr ea) {
    commit_load_repeats();
    load_line_ = machine_.store_data(ea) ? ea >> data_shift_ : kNoLine;
  }

  /// The flush side of a flush instruction targeting `ea`.
  void flush(Addr ea) {
    finish();
    fetch_line_ = kNoLine;
    load_line_ = kNoLine;
    machine_.flush_target(ea);
  }

  /// Charge the pending repeats (the lines stay remembered).
  void finish() {
    commit_fetch_repeats();
    commit_load_repeats();
  }

 private:
  /// No line number: addr >> offset_bits() stays below it for lines of
  /// at least 2 bytes.
  static constexpr Addr kNoLine = ~Addr{0};

  void commit_fetch_repeats() {
    if (fetch_repeats_ != 0) {
      machine_.fetch_repeat(fetch_repeats_);
      fetch_repeats_ = 0;
    }
  }
  void commit_load_repeats() {
    if (load_repeats_ != 0) {
      machine_.load_repeat(load_repeats_);
      load_repeats_ = 0;
    }
  }

  Machine& machine_;
  unsigned fetch_shift_;
  unsigned data_shift_;
  Addr fetch_line_ = kNoLine;
  Addr load_line_ = kNoLine;
  std::uint64_t fetch_repeats_ = 0;
  std::uint64_t load_repeats_ = 0;
};

/// The paper's platform (section 6.1.2) parameterized by cache design:
/// builds the HierarchyConfig for 16KB/128x4 L1s + 256KB/2048x4 L2.
[[nodiscard]] HierarchyConfig arm920t_config(cache::MapperKind l1_mapper,
                                             cache::MapperKind l2_mapper,
                                             cache::ReplacementKind repl);

}  // namespace tsc::sim
