#include "sim/tape.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "isa/interpreter.h"
#include "sim/machine.h"

namespace tsc::sim {
namespace {

/// The recording sink.  step() runs before the instruction's side effects,
/// so the branch operands are still in the registers.
class Recorder final : public isa::TraceSink {
 public:
  Recorder(const isa::Interpreter& interpreter, unsigned line_shift,
           std::vector<Tape::Record>& out)
      : interpreter_(interpreter), line_shift_(line_shift), out_(out) {}

  void step(Addr pc, const isa::Instr& in, Addr ea) override {
    if (pc > std::numeric_limits<std::uint32_t>::max()) {
      throw std::out_of_range("tape: pc " + std::to_string(pc) +
                              " does not fit TSISA's 32-bit address space");
    }
    // Only loads, stores and flushes keep their address (a jalr's is its
    // target, which the fetch of the next record already holds).  The
    // sink's ea of a load or store is wrapped to 32 bits already.
    Tape::Kind kind = Tape::Kind::kPlain;
    std::uint32_t ea32 = 0;
    bool taken = false;
    switch (in.op) {
      case isa::Op::kLw:
      case isa::Op::kLb:
      case isa::Op::kLbu:
        kind = Tape::Kind::kLoad;
        ea32 = static_cast<std::uint32_t>(ea);
        break;
      case isa::Op::kSw:
      case isa::Op::kSb:
        kind = Tape::Kind::kStore;
        ea32 = static_cast<std::uint32_t>(ea);
        break;
      case isa::Op::kFlush:
        kind = Tape::Kind::kFlush;
        ea32 = static_cast<std::uint32_t>(ea);
        break;
      case isa::Op::kJal:
      case isa::Op::kJalr:
        kind = Tape::Kind::kBranch;
        taken = true;
        break;
      default:
        if (isa::is_branch(in.op)) {
          kind = Tape::Kind::kBranch;
          taken = isa::branch_taken(in.op, interpreter_.reg(in.rs1),
                                    interpreter_.reg(in.rs2));
        }
        break;
    }
    // Extend the open record when this instruction follows it in the same
    // L1I line; a record closes at its first non-plain instruction.
    if (!out_.empty()) {
      Tape::Record& last = out_.back();
      if (last.kind == Tape::Kind::kPlain &&
          pc == Addr{last.pc} + 4 * Addr{last.n} &&
          (pc >> line_shift_) == (Addr{last.pc} >> line_shift_) &&
          last.n < std::numeric_limits<std::uint16_t>::max()) {
        ++last.n;
        last.kind = kind;
        last.ea = ea32;
        last.taken = taken ? 1 : 0;
        return;
      }
    }
    out_.push_back({static_cast<std::uint32_t>(pc), ea32, 1, kind,
                    static_cast<std::uint8_t>(taken ? 1 : 0)});
  }

 private:
  const isa::Interpreter& interpreter_;
  unsigned line_shift_;
  std::vector<Tape::Record>& out_;
};

}  // namespace

Tape Tape::record(isa::Interpreter& interpreter, Addr entry,
                  std::uint64_t max_steps) {
  const cache::Geometry& l1i =
      interpreter.machine().hierarchy().l1i().geometry();
  Tape tape;
  tape.line_bytes_ = l1i.line_bytes();
  Recorder recorder(interpreter, l1i.offset_bits(), tape.records_);
  // The previous sink comes back however the run ends.
  struct SinkGuard {
    isa::Interpreter& interpreter;
    isa::TraceSink* previous;
    ~SinkGuard() { interpreter.set_trace_sink(previous); }
  } guard{interpreter, interpreter.trace_sink()};
  interpreter.set_trace_sink(&recorder);
  const isa::RunResult result = interpreter.run_reference(entry, max_steps);
  tape.steps_ = result.steps;
  tape.stop_ = result.reason;
  tape.records_.shrink_to_fit();
  return tape;
}

Cycles Tape::play(Machine& machine) const {
  const cache::Geometry& l1i = machine.hierarchy().l1i().geometry();
  if (l1i.line_bytes() != line_bytes_) {
    throw std::invalid_argument(
        "tape recorded for " + std::to_string(line_bytes_) +
        "-byte L1I lines replayed on " + std::to_string(l1i.line_bytes()) +
        "-byte lines");
  }
  const Cycles start = machine.now();
  RepeatIssuer issuer(machine);
  for (const Record& record : records_) {
    issuer.fetch(record.pc, record.n);
    switch (record.kind) {
      case Kind::kPlain: break;
      case Kind::kLoad: issuer.load(record.ea); break;
      case Kind::kStore: issuer.store(record.ea); break;
      case Kind::kBranch: machine.resolve_branch(record.taken != 0); break;
      case Kind::kFlush: issuer.flush(record.ea); break;
    }
  }
  issuer.finish();
  return machine.now() - start;
}

}  // namespace tsc::sim
