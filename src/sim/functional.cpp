#include "sim/functional.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace warpcomp {

namespace {

float
asF(u32 v)
{
    return std::bit_cast<float>(v);
}

u32
asU(float v)
{
    return std::bit_cast<u32>(v);
}

/** What an absent operand or a zero immediate reads: 32 zero lanes,
 *  shared so the common case fills no broadcast array. */
constexpr WarpRegValue kZeroLanes{};

/** Each lane's bit in a LaneMask, as data. The mask tests below read
 *  `m & kLaneBit[lane]`: GCC turns `1u << lane` back into a shift by
 *  the lane index, which does not vectorize on SSE2 (no per-lane
 *  vector shift counts), while a table load does. */
constexpr std::array<u32, kWarpSize> kLaneBit = [] {
    std::array<u32, kWarpSize> bits{};
    for (u32 lane = 0; lane < kWarpSize; ++lane)
        bits[lane] = 1u << lane;
    return bits;
}();

/** Copy the @p eff lanes of @p res into @p dst; inactive lanes keep
 *  their old bits. */
void
mergeLanes(WarpRegValue &dst, const WarpRegValue &res, LaneMask eff)
{
    if (eff == kFullMask) {
        std::memcpy(dst.data(), res.data(), sizeof(WarpRegValue));
        return;
    }
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
        const u32 take = (eff & kLaneBit[lane]) != 0 ? ~0u : 0u;
        dst[lane] = (res[lane] & take) | (dst[lane] & ~take);
    }
}

/** A lane's 32 bits as the comparison type (i32 or float). */
template <typename T>
T
asLane(u32 v)
{
    if constexpr (std::is_same_v<T, float>)
        return asF(v);
    else
        return static_cast<T>(v);
}

/** Bit i set when rel(a[i], b[i]) holds, over all 32 lanes. */
template <typename T, typename Rel>
LaneMask
compareLanes(const u32 *a, const u32 *b, Rel rel)
{
    LaneMask m = 0;
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
        const bool hit = rel(asLane<T>(a[lane]), asLane<T>(b[lane]));
        m |= kLaneBit[lane] & (0u - static_cast<u32>(hit));
    }
    return m;
}

/** compareLanes for @p op, reading the lanes as @p T. */
template <typename T>
LaneMask
compareAll(CmpOp op, const u32 *a, const u32 *b)
{
    switch (op) {
      case CmpOp::Lt: return compareLanes<T>(a, b, std::less<>{});
      case CmpOp::Le: return compareLanes<T>(a, b, std::less_equal<>{});
      case CmpOp::Gt: return compareLanes<T>(a, b, std::greater<>{});
      case CmpOp::Ge: return compareLanes<T>(a, b, std::greater_equal<>{});
      case CmpOp::Eq: return compareLanes<T>(a, b, std::equal_to<>{});
      case CmpOp::Ne: return compareLanes<T>(a, b, std::not_equal_to<>{});
      default: WC_PANIC("unknown compare op");
    }
}

/** IABS: the two's-complement wrap, so |INT32_MIN| == INT32_MIN. */
u32
iabsLane(u32 v)
{
    return static_cast<i32>(v) < 0 ? 0u - v : v;
}

/** F2I truncating toward zero and saturating like PTX
 *  cvt.rzi.s32.f32: NaN -> 0, out-of-range -> INT32_MIN / INT32_MAX. */
u32
f2iLane(u32 v)
{
    const float f = asF(v);
    if (std::isnan(f))
        return 0;
    if (f >= 2147483648.0f)
        return static_cast<u32>(INT32_MAX);
    if (f < -2147483648.0f)
        return static_cast<u32>(INT32_MIN);
    return static_cast<u32>(static_cast<i32>(f));
}

/** The distinct 128-byte segments one LDG or STG touches, each marked
 *  in the run-ahead detector the first time it is seen. */
class SegmentMarks
{
  public:
    SegmentMarks(GlobalConflictDetector &detector, u32 cycle, bool store)
        : detector_(detector), cycle_(cycle), store_(store)
    {
    }

    void
    add(u64 addr)
    {
        const u64 seg = addr >> GlobalConflictDetector::kSegmentShift;
        // Coalesced lanes repeat the last segment; scattered ones
        // search the few seen so far.
        if (n_ != 0 && segs_[n_ - 1] == seg)
            return;
        for (u32 i = 0; i + 1 < n_; ++i) {
            if (segs_[i] == seg)
                return;
        }
        segs_[n_++] = seg;
        if (store_)
            detector_.markStore(seg, cycle_);
        else
            detector_.markLoad(seg, cycle_);
    }

  private:
    GlobalConflictDetector &detector_;
    const u32 cycle_;
    const bool store_;
    u32 n_ = 0;
    /** Only entries below n_ are read, so it is left uninitialized:
     *  marking costs no 256-byte clear per access. */
    std::array<u64, kWarpSize> segs_;
};

} // namespace

FunctionalExecutor::FunctionalExecutor(GlobalMemory &gmem,
                                       ConstantMemory &cmem)
    : gmem_(gmem), cmem_(cmem)
{
}

bool
FunctionalExecutor::addrValid(Opcode op, u64 addr,
                              const SharedMemory *smem) const
{
    u64 size = 0;
    switch (op) {
      case Opcode::Ldg:
      case Opcode::Stg:
        size = gmem_.size();
        break;
      case Opcode::Lds:
      case Opcode::Sts:
        size = smem != nullptr ? smem->size() : 0;
        break;
      case Opcode::Ldc:
        size = cmem_.size();
        break;
      default:
        WC_PANIC("addrValid on a non-memory opcode");
    }
    // Word-aligned and fully in range; anything else would raise an
    // out-of-range or misaligned-address fault on hardware.
    return (addr & 3) == 0 && addr < size && size - addr >= 4;
}

ExecOutcome
FunctionalExecutor::execute(Warp &warp, u32 pc, SharedMemory *smem,
                            const LaunchDims &dims, Cycle now)
{
    const Kernel &kernel = *warp.kernel();
    const Instruction &in = kernel.at(pc);
    WC_ASSERT(pc == warp.stack().pc(), "functional execute out of order");

    const LaneMask active = warp.stack().mask();
    const LaneMask eff = warp.guardLanes(in, active);

    ExecOutcome out;
    out.effMask = eff;

    // Resolve each source once per instruction into a flat 32-lane
    // array: a register is its own lanes, an immediate a broadcast
    // (an absent operand reads as immediate 0). The lane kernels below
    // then index plain arrays with no per-lane operand-kind test.
    // imm[i] is filled before src[i] points at it and is never read
    // otherwise, so it is not cleared up front.
    WarpRegValue imm[3];
    const u32 *src[3];
    for (u32 i = 0; i < 3; ++i) {
        const Operand &o = in.src[i];
        if (o.isReg()) {
            src[i] = warp.reg(o.reg).data();
        } else if (o.imm == 0) {
            src[i] = kZeroLanes.data();
        } else {
            imm[i].fill(static_cast<u32>(o.imm));
            src[i] = imm[i].data();
        }
    }
    const u32 *const a = src[0];
    const u32 *const b = src[1];
    const u32 *const c = src[2];

    // Lane kernel for a GPR-writing ALU op: fn runs on all 32 lanes,
    // active or not, into a temporary, which then merges into the
    // destination by the effective mask (inactive lanes keep their old
    // bits). With no mask test inside, GCC vectorizes the simple
    // bodies; completing the temporary first makes dst == src safe.
    auto lanewise = [&](auto &&fn) {
        if (in.dst == kNoReg || eff == 0)
            return;
        WarpRegValue res;
        for (u32 lane = 0; lane < kWarpSize; ++lane)
            res[lane] = fn(lane);
        mergeLanes(warp.reg(in.dst), res, eff);
        out.wroteReg = true;
    };

    switch (in.op) {
      case Opcode::Nop:
        break;
      case Opcode::S2R:
        switch (in.sreg) {
          case SpecialReg::TidX:
            lanewise([&](u32 lane) { return warp.tid(lane); });
            break;
          case SpecialReg::LaneId:
            lanewise([](u32 lane) { return lane; });
            break;
          case SpecialReg::CtaIdX:
          case SpecialReg::NTidX:
          case SpecialReg::NCtaIdX: {
            const u32 v = in.sreg == SpecialReg::CtaIdX ? warp.ctaId()
                : in.sreg == SpecialReg::NTidX          ? dims.blockDim
                                                        : dims.gridDim;
            lanewise([v](u32) { return v; });
            break;
          }
          default: WC_PANIC("unknown special register");
        }
        break;
      case Opcode::Mov:
      case Opcode::MovImm:
        lanewise([&](u32 lane) { return a[lane]; });
        break;
      case Opcode::IAdd:
        lanewise([&](u32 lane) { return a[lane] + b[lane]; });
        break;
      case Opcode::ISub:
        lanewise([&](u32 lane) { return a[lane] - b[lane]; });
        break;
      case Opcode::IMul:
        lanewise([&](u32 lane) { return a[lane] * b[lane]; });
        break;
      case Opcode::IMad:
        lanewise([&](u32 lane) { return a[lane] * b[lane] + c[lane]; });
        break;
      case Opcode::IMin:
        lanewise([&](u32 lane) {
            const i32 x = static_cast<i32>(a[lane]);
            const i32 y = static_cast<i32>(b[lane]);
            return static_cast<u32>(x < y ? x : y);
        });
        break;
      case Opcode::IMax:
        lanewise([&](u32 lane) {
            const i32 x = static_cast<i32>(a[lane]);
            const i32 y = static_cast<i32>(b[lane]);
            return static_cast<u32>(x > y ? x : y);
        });
        break;
      case Opcode::IAbs:
        lanewise([&](u32 lane) { return iabsLane(a[lane]); });
        break;
      case Opcode::And:
        lanewise([&](u32 lane) { return a[lane] & b[lane]; });
        break;
      case Opcode::Or:
        lanewise([&](u32 lane) { return a[lane] | b[lane]; });
        break;
      case Opcode::Xor:
        lanewise([&](u32 lane) { return a[lane] ^ b[lane]; });
        break;
      case Opcode::Not:
        lanewise([&](u32 lane) { return ~a[lane]; });
        break;
      case Opcode::Shl:
        lanewise([&](u32 lane) { return a[lane] << (b[lane] & 31); });
        break;
      case Opcode::Shr:
        lanewise([&](u32 lane) { return a[lane] >> (b[lane] & 31); });
        break;
      case Opcode::Sra:
        lanewise([&](u32 lane) {
            return static_cast<u32>(static_cast<i32>(a[lane]) >>
                                    (b[lane] & 31));
        });
        break;
      case Opcode::IMulHi:
        lanewise([&](u32 lane) {
            const i64 p = static_cast<i64>(static_cast<i32>(a[lane])) *
                          static_cast<i64>(static_cast<i32>(b[lane]));
            return static_cast<u32>(static_cast<u64>(p) >> 32);
        });
        break;
      case Opcode::IMulHiU:
        lanewise([&](u32 lane) {
            const u64 p = static_cast<u64>(a[lane]) *
                          static_cast<u64>(b[lane]);
            return static_cast<u32>(p >> 32);
        });
        break;
      // Division follows the RISC-V M rules the binary frontend relies
      // on: x/0 = -1 (all ones), x%0 = x, INT_MIN / -1 = INT_MIN with
      // remainder 0 — no lane ever traps, active or not.
      case Opcode::IDiv:
        lanewise([&](u32 lane) {
            const i32 x = static_cast<i32>(a[lane]);
            const i32 y = static_cast<i32>(b[lane]);
            if (y == 0)
                return ~0u;
            if (x == INT32_MIN && y == -1)
                return static_cast<u32>(INT32_MIN);
            return static_cast<u32>(x / y);
        });
        break;
      case Opcode::IDivU:
        lanewise([&](u32 lane) {
            const u32 y = b[lane];
            return y == 0 ? ~0u : a[lane] / y;
        });
        break;
      case Opcode::IRem:
        lanewise([&](u32 lane) {
            const i32 x = static_cast<i32>(a[lane]);
            const i32 y = static_cast<i32>(b[lane]);
            if (y == 0)
                return static_cast<u32>(x);
            if (x == INT32_MIN && y == -1)
                return 0u;
            return static_cast<u32>(x % y);
        });
        break;
      case Opcode::IRemU:
        lanewise([&](u32 lane) {
            const u32 y = b[lane];
            return y == 0 ? a[lane] : a[lane] % y;
        });
        break;
      case Opcode::ISetP:
        warp.setPred(in.dstPred, compareAll<i32>(in.cmp, a, b), eff);
        break;
      case Opcode::FSetP:
        warp.setPred(in.dstPred, compareAll<float>(in.cmp, a, b), eff);
        break;
      case Opcode::PAnd:
        warp.setPred(in.dstPred,
                     warp.pred(in.srcPred) & warp.pred(in.srcPred2), eff);
        break;
      case Opcode::POr:
        warp.setPred(in.dstPred,
                     warp.pred(in.srcPred) | warp.pred(in.srcPred2), eff);
        break;
      case Opcode::PNot:
        warp.setPred(in.dstPred, ~warp.pred(in.srcPred), eff);
        break;
      case Opcode::SelP: {
        const LaneMask p = warp.pred(in.srcPred);
        lanewise([&](u32 lane) {
            // All ones where the select predicate holds.
            const u32 take = (p & kLaneBit[lane]) != 0 ? ~0u : 0u;
            return (a[lane] & take) | (b[lane] & ~take);
        });
        break;
      }
      case Opcode::FAdd:
        lanewise([&](u32 lane) { return asU(asF(a[lane]) + asF(b[lane])); });
        break;
      case Opcode::FMul:
        lanewise([&](u32 lane) { return asU(asF(a[lane]) * asF(b[lane])); });
        break;
      case Opcode::FFma:
        lanewise([&](u32 lane) {
            return asU(asF(a[lane]) * asF(b[lane]) + asF(c[lane]));
        });
        break;
      case Opcode::FMin:
        lanewise([&](u32 lane) {
            return asU(std::fmin(asF(a[lane]), asF(b[lane])));
        });
        break;
      case Opcode::FMax:
        lanewise([&](u32 lane) {
            return asU(std::fmax(asF(a[lane]), asF(b[lane])));
        });
        break;
      case Opcode::I2F:
        lanewise([&](u32 lane) {
            return asU(static_cast<float>(static_cast<i32>(a[lane])));
        });
        break;
      case Opcode::F2I:
        lanewise([&](u32 lane) { return f2iLane(a[lane]); });
        break;
      case Opcode::FRcp:
        lanewise([&](u32 lane) { return asU(1.0f / asF(a[lane])); });
        break;
      case Opcode::Ldg:
      case Opcode::Stg:
      case Opcode::Lds:
      case Opcode::Sts:
      case Opcode::Ldc: {
        out.isMem = true;
        if (in.op == Opcode::Lds || in.op == Opcode::Sts) {
            WC_ASSERT(smem != nullptr,
                      "shared access in a kernel with no shared memory");
        }
        // Memory touches only the effective lanes, lowest first (the
        // order later stores to one address resolve in). Per-lane
        // reads of the address precede the lane's load, so dst == src0
        // is safe without a temporary.
        u32 *const d = in.isLoad() ? warp.reg(in.dst).data() : nullptr;
        auto each = [&](auto &&access) {
            for (LaneMask m = eff; m != 0; m &= m - 1) {
                const u32 lane = lowestLane(m);
                const u64 addr = static_cast<u64>(a[lane]) +
                    static_cast<i64>(in.memOffset);
                out.addrs[lane] = addr;
                if (containFaults_ && !addrValid(in.op, addr, smem)) {
                    // Fault injection drove this address out of range;
                    // on hardware this raises a memory fault. Squash
                    // the lane access and count it as unrecoverable.
                    ++contained_;
                    if (d != nullptr)
                        d[lane] = 0;
                    continue;
                }
                access(lane, addr);
            }
        };
        switch (in.op) {
          case Opcode::Ldg:
            if (detector_ == nullptr) {
                each([&](u32 lane, u64 addr) {
                    d[lane] = gmem_.read32(addr);
                });
            } else {
                SegmentMarks marks(*detector_, static_cast<u32>(now),
                                   false);
                each([&](u32 lane, u64 addr) {
                    d[lane] = gmem_.read32(addr);
                    marks.add(addr);
                });
            }
            break;
          case Opcode::Stg:
            if (stores_ == nullptr) {
                each([&](u32 lane, u64 addr) {
                    gmem_.write32(addr, b[lane]);
                });
            } else if (detector_ == nullptr) {
                each([&](u32 lane, u64 addr) {
                    stores_->push(addr, b[lane], static_cast<u32>(now));
                });
            } else {
                SegmentMarks marks(*detector_, static_cast<u32>(now),
                                   true);
                each([&](u32 lane, u64 addr) {
                    stores_->push(addr, b[lane], static_cast<u32>(now));
                    marks.add(addr);
                });
            }
            break;
          case Opcode::Lds:
            each([&](u32 lane, u64 addr) {
                d[lane] = smem->read32(static_cast<u32>(addr));
            });
            break;
          case Opcode::Sts:
            each([&](u32 lane, u64 addr) {
                smem->write32(static_cast<u32>(addr), b[lane]);
            });
            break;
          default:
            each([&](u32 lane, u64 addr) {
                d[lane] = cmem_.read32(static_cast<u32>(addr));
            });
            break;
        }
        out.wroteReg = d != nullptr && eff != 0;
        break;
      }
      case Opcode::Bra: {
        // Guard selects the taken lanes; unguarded branches are taken
        // by every active lane.
        out.diverged = warp.stack().branch(in.target, in.reconv, eff,
                                           pc + 1);
        out.warpFinished = warp.stack().empty();
        return out;
      }
      case Opcode::Bar:
        break;
      case Opcode::Exit: {
        // Lanes failing the guard stay alive; if every lane of the top
        // entry exits, the entry disappears and the next entry's pc must
        // not be disturbed.
        const LaneMask remaining = active & ~eff;
        warp.stack().exitLanes(eff);
        out.warpFinished = warp.stack().empty();
        if (!out.warpFinished && remaining != 0)
            warp.stack().advance(pc + 1);
        return out;
      }
      default:
        WC_PANIC("unhandled opcode in functional execution");
    }

    warp.stack().advance(pc + 1);
    return out;
}

} // namespace warpcomp
