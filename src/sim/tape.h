// Seed-independent access tapes: record a program run once, replay it into
// any number of machines.
//
// TSISA has no instruction that reads time, and an interpreter's registers
// and memory are private to it, so the stream of fetches, loads, stores,
// branch outcomes and flushes a program issues depends only on the program
// (and the interpreter state it starts from), never on the platform, the
// placement seed or the cache contents.  A Tape captures that stream once,
// through the reference interpreter's TraceSink, and play() feeds it to a
// Machine with exactly the calls Interpreter::run would make: the MBPTA
// protocols, which time one kernel on thousands of freshly seeded machines,
// then interpret each kernel pass once instead of once per machine.
//
// A tape is valid for the program state it was recorded from and for any
// machine whose L1I has the recorded line size (the records are grouped by
// L1I line); play() throws on any other line size.  The L1D geometry is
// free: data accesses keep their full effective address.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace tsc::isa {
class Interpreter;
enum class StopReason;
}  // namespace tsc::isa

namespace tsc::sim {

class Machine;

class Tape {
 public:
  /// What the last instruction of a record does besides its fetch.
  enum class Kind : std::uint8_t { kPlain, kLoad, kStore, kBranch, kFlush };

  /// `n` consecutive instructions (pc, pc + 4, ...) inside one L1I line.
  /// All but the last are plain; the last has `kind`, with its effective
  /// address `ea` (loads, stores, flushes) or its `taken` flag (branches;
  /// jumps are taken branches).  TSISA addresses are 32-bit.
  struct Record {
    std::uint32_t pc = 0;
    std::uint32_t ea = 0;
    std::uint16_t n = 0;
    Kind kind = Kind::kPlain;
    std::uint8_t taken = 0;
  };
  static_assert(sizeof(Record) == 12);

  /// Run interpreter.run_reference(entry, max_steps) and record its
  /// stream, grouped for the L1I line size of the interpreter's machine
  /// (which the run charges like any other).  Any trace sink the
  /// interpreter had is restored afterwards.  Throws std::out_of_range
  /// when execution reaches a pc >= 2^32, which no record can hold.
  [[nodiscard]] static Tape record(isa::Interpreter& interpreter, Addr entry,
                                   std::uint64_t max_steps = 10'000'000);

  /// Replay the stream into `machine` under its current process and
  /// return the cycles it took: bit-exact with Interpreter::run on the
  /// recorded program state - the same Machine calls in the same order,
  /// so time, rng draws and every MachineStats and CacheStats field agree.
  /// Both issue through the same RepeatIssuer (machine.h).  Throws
  /// std::invalid_argument when the machine's L1I line size differs from
  /// line_bytes().
  Cycles play(Machine& machine) const;

  [[nodiscard]] std::span<const Record> records() const { return records_; }
  /// Instructions executed by the recorded run (the sum of every n).
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] isa::StopReason stop() const { return stop_; }
  /// The L1I line size the records are grouped for.
  [[nodiscard]] std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  Tape() = default;

  std::vector<Record> records_;
  std::uint64_t steps_ = 0;
  isa::StopReason stop_{};
  std::uint32_t line_bytes_ = 0;
};

}  // namespace tsc::sim
