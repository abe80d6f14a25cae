#include "transform/binder.h"

#include <map>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace repro::transform {

using interp::Interpreter;
using interp::Memory;
using interp::RuntimeValue;
using ir::Type;

namespace {

uint64_t
kindSize(Type::Kind kind)
{
    switch (kind) {
      case Type::Kind::I1: return 1;
      case Type::Kind::I32: return 4;
      case Type::Kind::I64: return 8;
      case Type::Kind::Float: return 4;
      case Type::Kind::Double: return 8;
      default: return 8;
    }
}

RuntimeValue
loadKind(Memory &mem, Type::Kind kind, uint64_t addr)
{
    switch (kind) {
      case Type::Kind::I32:
        return RuntimeValue::makeInt(mem.load<int32_t>(addr));
      case Type::Kind::I64:
        return RuntimeValue::makeInt(mem.load<int64_t>(addr));
      case Type::Kind::Float:
        return RuntimeValue::makeFP(mem.load<float>(addr));
      case Type::Kind::Double:
        return RuntimeValue::makeFP(mem.load<double>(addr));
      default:
        throw FatalError("binder: unsupported element kind");
    }
}

void
storeKind(Memory &mem, Type::Kind kind, uint64_t addr, RuntimeValue v)
{
    switch (kind) {
      case Type::Kind::I32:
        mem.store<int32_t>(addr, static_cast<int32_t>(v.i));
        break;
      case Type::Kind::I64:
        mem.store<int64_t>(addr, v.i);
        break;
      case Type::Kind::Float:
        mem.store<float>(addr, static_cast<float>(v.f));
        break;
      case Type::Kind::Double:
        mem.store<double>(addr, v.f);
        break;
      default:
        throw FatalError("binder: unsupported element kind");
    }
}

uint64_t
addrOf(const RuntimeValue &v)
{
    return static_cast<uint64_t>(v.i);
}

void
spmvInline(Memory &mem, const std::vector<RuntimeValue> &args)
{
    int64_t row_begin = args[0].i;
    int64_t row_end = args[1].i;
    uint64_t rowstr = addrOf(args[2]);
    uint64_t colidx = addrOf(args[3]);
    uint64_t a = addrOf(args[4]);
    uint64_t z = addrOf(args[5]);
    uint64_t r = addrOf(args[6]);
    for (int64_t j = row_begin; j < row_end; ++j) {
        int32_t lo =
            mem.load<int32_t>(rowstr + 4 * static_cast<uint64_t>(j));
        int32_t hi = mem.load<int32_t>(
            rowstr + 4 * static_cast<uint64_t>(j + 1));
        double d = 0.0;
        for (int32_t k = lo; k < hi; ++k) {
            int32_t col = mem.load<int32_t>(
                colidx + 4 * static_cast<uint64_t>(k));
            double av =
                mem.load<double>(a + 8 * static_cast<uint64_t>(k));
            double zv =
                mem.load<double>(z + 8 * static_cast<uint64_t>(col));
            d += av * zv;
        }
        mem.store<double>(r + 8 * static_cast<uint64_t>(j), d);
    }
}

void
bindSpmv(Interpreter &interp, const Replacement &rep)
{
    interp.registerNative(
        rep.calleeName,
        [](const std::vector<RuntimeValue> &args, Interpreter &it) {
            spmvInline(it.memory(), args);
            return RuntimeValue::makeVoid();
        });
}

template <typename T>
void
gemmLoop(Memory &mem, const std::vector<RuntimeValue> &args)
{
    int64_t b0 = args[0].i, e0 = args[1].i;
    int64_t b1 = args[2].i, e1 = args[3].i;
    int64_t b2 = args[4].i, e2 = args[5].i;
    uint64_t c = addrOf(args[6]);
    int64_t c0 = args[7].i, c1 = args[8].i;
    uint64_t a = addrOf(args[9]);
    int64_t a0 = args[10].i, a2 = args[11].i;
    uint64_t b = addrOf(args[12]);
    int64_t b1s = args[13].i, b2s = args[14].i;
    T alpha = static_cast<T>(args[15].f);
    T beta = static_cast<T>(args[16].f);
    const uint64_t es = sizeof(T);
    for (int64_t i0 = b0; i0 < e0; ++i0) {
        for (int64_t i1 = b1; i1 < e1; ++i1) {
            T acc = 0;
            for (int64_t k = b2; k < e2; ++k) {
                T av = mem.load<T>(
                    a + es * static_cast<uint64_t>(i0 * a0 + k * a2));
                T bv = mem.load<T>(
                    b + es * static_cast<uint64_t>(i1 * b1s +
                                                   k * b2s));
                acc += av * bv;
            }
            uint64_t caddr =
                c + es * static_cast<uint64_t>(i0 * c0 + i1 * c1);
            T old = mem.load<T>(caddr);
            mem.store<T>(caddr, beta * old + alpha * acc);
        }
    }
}

void
bindGemm(Interpreter &interp, const Replacement &rep)
{
    auto loop = rep.elemKind == Type::Kind::Float ? &gemmLoop<float>
                                                  : &gemmLoop<double>;
    interp.registerNative(
        rep.calleeName, [loop](const std::vector<RuntimeValue> &args,
                               Interpreter &it) {
            loop(it.memory(), args);
            return RuntimeValue::makeVoid();
        });
}

void
bindReduce(Interpreter &interp, const Replacement &rep)
{
    interp.registerNative(
        rep.calleeName,
        [rep](const std::vector<RuntimeValue> &args, Interpreter &it) {
            Memory &mem = it.memory();
            int64_t begin = args[0].i;
            int64_t end = args[1].i;
            RuntimeValue acc = args[2];
            size_t base_at = 3;
            size_t inv_at =
                base_at + static_cast<size_t>(rep.numReads);
            for (int64_t i = begin; i < end; ++i) {
                std::vector<RuntimeValue> kargs;
                kargs.reserve(static_cast<size_t>(rep.numReads) + 1 +
                              static_cast<size_t>(rep.numInvariants));
                for (int r = 0; r < rep.numReads; ++r) {
                    Type::Kind kind =
                        rep.readKinds[static_cast<size_t>(r)];
                    uint64_t base = addrOf(
                        args[base_at + static_cast<size_t>(r)]);
                    kargs.push_back(loadKind(
                        mem, kind,
                        base + kindSize(kind) *
                                   static_cast<uint64_t>(i)));
                }
                kargs.push_back(acc);
                for (int v = 0; v < rep.numInvariants; ++v)
                    kargs.push_back(
                        args[inv_at + static_cast<size_t>(v)]);
                acc = it.call(rep.kernel, kargs);
            }
            return acc;
        });
}

void
bindHistogram(Interpreter &interp, const Replacement &rep)
{
    interp.registerNative(
        rep.calleeName,
        [rep](const std::vector<RuntimeValue> &args, Interpreter &it) {
            Memory &mem = it.memory();
            int64_t begin = args[0].i;
            int64_t end = args[1].i;
            uint64_t bin = addrOf(args[2]);
            size_t base_at = 3;
            size_t vinv_at =
                base_at + static_cast<size_t>(rep.numReads);
            size_t iinv_at =
                vinv_at + static_cast<size_t>(rep.numInvariants);
            for (int64_t i = begin; i < end; ++i) {
                std::vector<RuntimeValue> reads;
                for (int r = 0; r < rep.numReads; ++r) {
                    Type::Kind kind =
                        rep.readKinds[static_cast<size_t>(r)];
                    uint64_t base = addrOf(
                        args[base_at + static_cast<size_t>(r)]);
                    reads.push_back(loadKind(
                        mem, kind,
                        base + kindSize(kind) *
                                   static_cast<uint64_t>(i)));
                }
                std::vector<RuntimeValue> iargs = reads;
                for (int v = 0; v < rep.numIndexInvariants; ++v)
                    iargs.push_back(
                        args[iinv_at + static_cast<size_t>(v)]);
                int64_t idx =
                    it.call(rep.indexKernel, iargs).i;
                uint64_t slot =
                    bin + kindSize(rep.elemKind) *
                              static_cast<uint64_t>(idx);
                RuntimeValue old =
                    loadKind(mem, rep.elemKind, slot);
                std::vector<RuntimeValue> vargs = reads;
                vargs.push_back(old);
                for (int v = 0; v < rep.numInvariants; ++v)
                    vargs.push_back(
                        args[vinv_at + static_cast<size_t>(v)]);
                storeKind(mem, rep.elemKind, slot,
                          it.call(rep.kernel, vargs));
            }
            return RuntimeValue::makeVoid();
        });
}

void
bindStencil(Interpreter &interp, const Replacement &rep)
{
    int dims = rep.stencilDims;
    interp.registerNative(
        rep.calleeName,
        [rep, dims](const std::vector<RuntimeValue> &args,
                    Interpreter &it) {
            Memory &mem = it.memory();
            std::vector<int64_t> lo(static_cast<size_t>(dims));
            std::vector<int64_t> hi(static_cast<size_t>(dims));
            size_t at = 0;
            for (int d = 0; d < dims; ++d) {
                lo[static_cast<size_t>(d)] = args[at++].i;
                hi[static_cast<size_t>(d)] = args[at++].i;
            }
            uint64_t out = addrOf(args[at++]);
            int64_t s0 = 1, s1 = 1;
            if (dims == 3) {
                s0 = args[at++].i;
                s1 = args[at++].i;
            }
            std::vector<uint64_t> bases;
            for (int r = 0; r < rep.numReads; ++r)
                bases.push_back(addrOf(args[at++]));
            std::vector<RuntimeValue> invs;
            for (int v = 0; v < rep.numInvariants; ++v)
                invs.push_back(args[at++]);

            uint64_t esz = kindSize(rep.elemKind);
            auto run_point = [&](int64_t i0, int64_t i1, int64_t i2) {
                std::vector<RuntimeValue> kargs;
                for (int r = 0; r < rep.numReads; ++r) {
                    int64_t flat;
                    if (dims == 3) {
                        const int64_t *off =
                            &rep.readOffsets[static_cast<size_t>(r) *
                                             3];
                        flat = (i2 + off[0]) +
                               s0 * ((i1 + off[1]) +
                                     s1 * (i0 + off[2]));
                    } else {
                        flat = i0 +
                               rep.readOffsets[static_cast<size_t>(r)];
                    }
                    Type::Kind rkind =
                        rep.readKinds[static_cast<size_t>(r)];
                    kargs.push_back(loadKind(
                        mem, rkind,
                        bases[static_cast<size_t>(r)] +
                            kindSize(rkind) *
                                static_cast<uint64_t>(flat)));
                }
                for (const RuntimeValue &v : invs)
                    kargs.push_back(v);
                RuntimeValue result = it.call(rep.kernel, kargs);
                int64_t wflat = dims == 3
                                    ? i2 + s0 * (i1 + s1 * i0)
                                    : i0;
                storeKind(mem, rep.elemKind,
                          out + esz * static_cast<uint64_t>(wflat),
                          result);
            };

            if (dims == 3) {
                for (int64_t i0 = lo[0]; i0 < hi[0]; ++i0)
                    for (int64_t i1 = lo[1]; i1 < hi[1]; ++i1)
                        for (int64_t i2 = lo[2]; i2 < hi[2]; ++i2)
                            run_point(i0, i1, i2);
            } else {
                for (int64_t i0 = lo[0]; i0 < hi[0]; ++i0)
                    run_point(i0, 0, 0);
            }
            return RuntimeValue::makeVoid();
        });
}

using Binder = void (*)(Interpreter &, const Replacement &);

/** The host handler of each replacement kind in idioms::idiomTable(). */
Binder
binderOf(const std::string &kind)
{
    static const std::map<std::string, Binder> binders = {
        {"spmv", bindSpmv},         {"gemm", bindGemm},
        {"reduce", bindReduce},     {"histogram", bindHistogram},
        {"stencil1d", bindStencil}, {"stencil3d", bindStencil},
    };
    auto it = binders.find(kind);
    return it == binders.end() ? nullptr : it->second;
}

} // namespace

void
bindReplacements(Interpreter &interp,
                 const std::vector<Replacement> &replacements)
{
    // Every target of a library kind binds the same host handler:
    // the backend only changes the entry-point name the rewritten IR
    // calls (e.g. "__hetero_gemm_f64__cublas_gpu") and its modeled
    // price. Call sites sharing a callee re-register the same handler.
    for (const Replacement &rep : replacements) {
        Binder bind = binderOf(rep.kind);
        if (!bind) {
            throw FatalError("binder: no handler for replacement kind '" +
                             rep.kind + "' of '" + rep.calleeName + "'");
        }
        bind(interp, rep);
    }
}

} // namespace repro::transform
