// A validated, executable device program.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "gpu/isa.h"

namespace pg::gpu {

/// Fully-resolved opcode for the predecoded stream: the Instr
/// sub-fields that the interpreter would otherwise re-dispatch on per
/// lane (comparison kind, branch condition, special register) are folded
/// into one flat enum, so the interpreter's switch lands directly on the
/// operation. Block layout matters: the Setp/SetpI/Sreg/Bra groups are
/// indexed arithmetically from their base during predecode and must stay
/// in Cmp/Sreg/BraCond declaration order.
enum class XOp : std::uint8_t {
  kNop = 0,
  kMovI, kMov,
  kAdd, kAddI, kSub, kMul, kMulI, kShlI, kShrI,
  kAnd, kAndI, kOr, kOrI, kXor, kNot,
  kBswap32, kBswap64,
  // Cmp order: Eq, Ne, Lt, Le, Gt, Ge, LtU, GeU.
  kSetpEq, kSetpNe, kSetpLt, kSetpLe, kSetpGt, kSetpGe, kSetpLtU, kSetpGeU,
  kSetpEqI, kSetpNeI, kSetpLtI, kSetpLeI, kSetpGtI, kSetpGeI, kSetpLtUI,
  kSetpGeUI,
  // Sreg order: TidX, CtaidX, NtidX, NctaidX, Clock, WarpId.
  kSregTid, kSregCtaid, kSregNtid, kSregNctaid, kSregClock, kSregWarpId,
  // BraCond order: Always, IfTrue, IfFalse.
  kBraAlways, kBraIfTrue, kBraIfFalse,
  kSsy, kCall, kRet, kExit,
  kMembarSys, kBarSync,
  kLd, kSt, kAtomAdd, kAtomExch,
};

/// One predecoded instruction: secondary decode and immediate casts are
/// done once at predecode time instead of millions of times in the
/// interpreter loop. Shift immediates arrive pre-masked to 6 bits.
struct Decoded {
  XOp op = XOp::kNop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::uint8_t width = 8;
  /// This LD heads a *pure device poll loop*: `ld` → `setp` → `bra` back
  /// to the `ld`, whose only written registers are the loaded value and
  /// the predicate, neither of which feeds the address or (except the
  /// loaded value) the compare. Every failed iteration therefore leaves
  /// the warp exactly as it found it (see Gpu::exec_load).
  bool poll_head = false;
  std::int32_t target = -1;
  std::uint64_t imm = 0;
};

class Program {
 public:
  Program() = default;
  Program(std::string name, std::vector<Instr> code)
      : name_(std::move(name)), code_(std::move(code)) {}

  const std::string& name() const { return name_; }
  const std::vector<Instr>& code() const { return code_; }
  std::size_t size() const { return code_.size(); }
  const Instr& at(std::size_t pc) const { return code_[pc]; }

  /// The predecoded stream the interpreter executes. Built on first use
  /// (the GPU resolves it once per kernel launch) and cached; the
  /// returned vector is stable for the Program's lifetime.
  const std::vector<Decoded>& decoded() const;

  /// Structural validation: branch targets in range, widths legal, a
  /// reachable EXIT exists. Run once after assembly.
  Status validate() const;

  /// Full disassembly listing with instruction indices.
  std::string disassemble() const;

 private:
  std::string name_;
  std::vector<Instr> code_;
  mutable std::vector<Decoded> decoded_;  // predecode cache
};

}  // namespace pg::gpu
