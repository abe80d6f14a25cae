/**
 * @file
 * Tests of incremental compilation (frontend::compileMiniCReusing):
 * a function whose definition and the module's declarations are
 * unchanged is cloned from the previous compile, and the result must
 * be indistinguishable from a fresh compile — printed IR, content
 * hashes and the users() order the solver enumerates candidates in.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchmarks/suite.h"
#include "frontend/compiler.h"
#include "ir/function.h"
#include "ir/printer.h"
#include "support/diagnostics.h"

using namespace repro;

namespace {

/** One compile and the module it produced. */
struct Compiled
{
    std::unique_ptr<ir::Module> module = std::make_unique<ir::Module>();
    frontend::CompileResult result;

    frontend::PreviousCompile
    asPrevious() const
    {
        return {module.get(), &result.keys};
    }
};

Compiled
compile(const std::string &source, frontend::PreviousCompile previous = {},
        ir::VerifyMode verify = ir::defaultVerifyMode())
{
    Compiled c;
    DiagEngine diags;
    c.result = frontend::compileMiniCReusing(source, *c.module, diags,
                                             previous, verify);
    EXPECT_TRUE(c.result.ok) << diags.dump();
    return c;
}

/**
 * Per function, the positions (within that function) of every
 * defined or used value's users, in users() order.
 */
std::string
usersOrder(const ir::Module &module)
{
    std::ostringstream os;
    for (const auto &f : module.functions()) {
        std::unordered_map<const ir::Instruction *, size_t> position;
        for (const auto &bb : f->blocks()) {
            for (const auto &inst : bb->insts())
                position.emplace(inst.get(), position.size());
        }
        auto dump = [&](const ir::Value *v) {
            os << ' ';
            for (const ir::Instruction *user : v->users()) {
                auto it = position.find(user);
                if (it != position.end())
                    os << it->second << ',';
            }
        };
        os << f->name() << ':';
        for (const auto &a : f->args())
            dump(a.get());
        for (const auto &bb : f->blocks()) {
            for (const auto &inst : bb->insts()) {
                dump(inst.get());
                for (const ir::Value *op : inst->operands())
                    dump(op);
            }
        }
        os << '\n';
    }
    return os.str();
}

/** @p got must equal a fresh compile of @p source in every respect. */
void
expectSameAsFresh(const Compiled &got, const std::string &source)
{
    Compiled fresh = compile(source);
    EXPECT_EQ(ir::printModule(*got.module), ir::printModule(*fresh.module));
    EXPECT_EQ(usersOrder(*got.module), usersOrder(*fresh.module));
    const auto &a = got.module->functions();
    const auto &b = fresh.module->functions();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i]->name(), b[i]->name());
        EXPECT_EQ(a[i]->contentHash(), b[i]->contentHash()) << a[i]->name();
    }
}

/** Names of the functions @p c keyed for reuse, in module order. */
std::vector<std::string>
definedFunctions(const Compiled &c)
{
    std::vector<std::string> ordered;
    for (const auto &f : c.module->functions()) {
        if (!f->isDeclaration() && c.result.keys.definitions.count(f->name()))
            ordered.push_back(f->name());
    }
    return ordered;
}

/** Ten kernels, one embedded constant ("knob") each. */
std::string
tenFunctionSource(const std::vector<int> &knobs)
{
    auto k = [&](int i) { return std::to_string(knobs[i]); };
    return "double sum(double *a, int n) {\n"
           "  double s = 0.0;\n"
           "  for (int i = 0; i < n; i++) s = s + a[i] * " + k(0) + ".0;\n"
           "  return s;\n}\n"
           "void hist(int *key, int *bin, int n) {\n"
           "  for (int i = 0; i < n; i++) bin[key[i] % " + k(1) +
           "] = bin[key[i] % " + k(1) + "] + 1;\n}\n"
           "void axpy(double *x, double *y, double a, int n) {\n"
           "  for (int i = 0; i < n; i++) y[i] = y[i] + a * x[i] + " +
           k(2) + ".0;\n}\n"
           "void stencil(double *in, double *out, int n) {\n"
           "  for (int i = 1; i < n - 1; i++)\n"
           "    out[i] = in[i - 1] + in[i] * " + k(3) +
           ".0 + in[i + 1];\n}\n"
           "void gemm(double *a, double *b, double *c, int n) {\n"
           "  for (int i = 0; i < n; i++)\n"
           "    for (int j = 0; j < n; j++) {\n"
           "      double acc = " + k(4) + ".0;\n"
           "      for (int p = 0; p < n; p++)\n"
           "        acc = acc + a[i * n + p] * b[p * n + j];\n"
           "      c[i * n + j] = acc;\n"
           "    }\n}\n"
           "int clamp(int x) {\n"
           "  if (x > " + k(5) + ") return " + k(5) + ";\n"
           "  return x;\n}\n"
           "double dot(double *a, double *b, int n) {\n"
           "  double d = " + k(6) + ".0;\n"
           "  for (int i = 0; i < n; i++) d = d + a[i] * b[i];\n"
           "  return d;\n}\n"
           "void scale(double *a, int n) {\n"
           "  for (int i = 0; i < n; i++) a[i] = a[i] * " + k(7) +
           ".0;\n}\n"
           "int count(int *a, int n) {\n"
           "  int c = 0;\n"
           "  for (int i = 0; i < n; i++) if (a[i] > " + k(8) +
           ") c++;\n"
           "  return c + clamp(n);\n}\n"
           "double norm(double *a, int n) {\n"
           "  return sqrt(dot(a, a, n)) + " + k(9) + ".0;\n}\n";
}

} // namespace

TEST(FrontendReuse, SuiteProgramsReuseEveryFunction)
{
    for (const auto &p : benchmarks::nasParboilSuite()) {
        SCOPED_TRACE(p.name);
        Compiled first = compile(p.source);
        EXPECT_TRUE(first.result.reused.empty());
        Compiled second = compile(p.source, first.asPrevious());
        EXPECT_EQ(second.result.reused, definedFunctions(first));
        expectSameAsFresh(second, p.source);
        // Clones of clones stay exact.
        Compiled third = compile(p.source, second.asPrevious());
        expectSameAsFresh(third, p.source);
    }
}

TEST(FrontendReuse, EditSequenceReusesExactlyTheUneditedFunctions)
{
    const char *names[] = {"sum",   "hist", "axpy",  "stencil", "gemm",
                           "clamp", "dot",  "scale", "count",   "norm"};
    std::vector<int> knobs = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    Compiled previous = compile(tenFunctionSource(knobs));
    uint64_t rng = 7;
    for (int step = 0; step < 12; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        std::vector<bool> edited(knobs.size(), false);
        for (int t = 0; t < 1 + step % 2; ++t) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            size_t f = (rng >> 33) % knobs.size();
            edited[f] = true;
        }
        std::vector<std::string> expected;
        for (size_t f = 0; f < knobs.size(); ++f) {
            if (edited[f])
                knobs[f] += 100;
            else
                expected.push_back(names[f]);
        }
        const std::string source = tenFunctionSource(knobs);
        Compiled next = compile(source, previous.asPrevious());
        EXPECT_EQ(next.result.reused, expected);
        expectSameAsFresh(next, source);
        previous = std::move(next);
    }
}

TEST(FrontendReuse, LayoutOnlyEditsReuseEverything)
{
    const std::string base = tenFunctionSource({1, 2, 3, 4, 5, 6, 7, 8,
                                                9, 10});
    Compiled first = compile(base);
    // Comments and whitespace move every token but change none.
    const std::string moved = "// header\n\n/* block */" + base + "\n\n";
    Compiled second = compile(moved, first.asPrevious());
    EXPECT_EQ(second.result.reused.size(), 10u);
    expectSameAsFresh(second, moved);
}

TEST(FrontendReuse, DeclarationChangesReuseNothing)
{
    const std::string base = R"(
        int table[16];
        double g(double x) { return x * 2.0; }
        double f(double *a, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s = s + g(a[i]);
            return s;
        }
        void h(int *k, int n) {
            for (int i = 0; i < n; i++) table[k[i]] = table[k[i]] + 1;
        }
    )";
    auto edit = [&](const std::string &from, const std::string &to) {
        std::string s = base;
        size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return s.replace(at, from.size(), to);
    };
    const std::string variants[] = {
        // A callee's signature: f's call converts differently.
        edit("double g(double x)", "double g(float x)"),
        // A global: h indexes a different array type.
        edit("int table[16];", "int table[32];"),
        // A new global, used by nobody.
        edit("int table[16];", "int table[16];\nint spare;"),
    };
    Compiled first = compile(base);
    for (const std::string &v : variants) {
        SCOPED_TRACE(v);
        Compiled next = compile(v, first.asPrevious());
        EXPECT_TRUE(next.result.reused.empty());
        expectSameAsFresh(next, v);
        // And back: the base against the variant reuses nothing too.
        Compiled back = compile(base, next.asPrevious());
        EXPECT_TRUE(back.result.reused.empty());
        expectSameAsFresh(back, base);
    }

    // A body edit of g alone keeps f and h.
    const std::string body = edit("x * 2.0", "x * 3.0");
    Compiled next = compile(body, first.asPrevious());
    EXPECT_EQ(next.result.reused, (std::vector<std::string>{"f", "h"}));
    expectSameAsFresh(next, body);
}

TEST(FrontendReuse, DuplicateDefinitionsAreNeverReused)
{
    // Codegen's treatment of a name defined twice is not a per-body
    // property, so such names are never keyed.
    const std::string source = "int f() { return 1; }\n"
                               "int g() { return 2; }\n";
    Compiled first = compile(source);
    EXPECT_EQ(first.result.keys.definitions.size(), 2u);

    ir::Module module;
    DiagEngine diags;
    frontend::CompileResult twice = frontend::compileMiniCReusing(
        source + "int f() { return 1; }\n", module, diags,
        first.asPrevious());
    EXPECT_EQ(twice.keys.definitions.count("f"), 0u);
    EXPECT_EQ(twice.keys.definitions.count("g"), 1u);
}

TEST(FrontendReuse, BoundaryVerificationCoversClones)
{
    const std::string source = tenFunctionSource({1, 2, 3, 4, 5, 6, 7, 8,
                                                  9, 10});
    Compiled first = compile(source, {}, ir::VerifyMode::Boundaries);
    Compiled second = compile(source, first.asPrevious(),
                              ir::VerifyMode::Boundaries);
    EXPECT_EQ(second.result.reused.size(), 10u);
    expectSameAsFresh(second, source);
}

/**
 * Break @p f's body in place: move the first instruction that has a
 * same-block instruction operand to just before that operand's
 * definition, so the use precedes it.
 */
void
moveUseBeforeDefinition(ir::Function *f)
{
    for (const auto &bb : f->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(ir::Opcode::Phi))
                continue;
            for (ir::Value *v : inst->operands()) {
                auto *def = v->isInstruction()
                                ? static_cast<ir::Instruction *>(v)
                                : nullptr;
                if (!def || def->parent() != bb.get() ||
                    def->is(ir::Opcode::Phi))
                    continue;
                ir::Instruction *use = inst.get();
                auto moved = bb->detach(use);
                bb->insert(static_cast<size_t>(bb->indexOf(def)),
                           std::move(moved));
                return;
            }
        }
    }
    FAIL() << "@" << f->name() << " has no same-block use to move";
}

// A warm compile verifies only what it compiled fresh and trusts each
// clone to be the body that passed the final check before. The
// boundary check still verifies the clones, so a reused body broken
// after its compile is caught there; and when the declarations change
// nothing is reused, so it cannot leak into the new module.
TEST(FrontendReuse, BoundaryVerificationCatchesTamperedReuse)
{
    const std::string source = tenFunctionSource({1, 2, 3, 4, 5, 6, 7, 8,
                                                  9, 10});
    Compiled first = compile(source);
    moveUseBeforeDefinition(first.module->functionByName("axpy"));
    ASSERT_FALSE(ir::verifyModule(*first.module).empty());

    ir::Module warm;
    DiagEngine diags;
    try {
        frontend::compileMiniCReusing(source, warm, diags,
                                      first.asPrevious(),
                                      ir::VerifyMode::Boundaries);
        ADD_FAILURE() << "tampered clone passed the boundary check";
    } catch (const InternalError &e) {
        EXPECT_NE(std::string(e.what()).find("'frontend-reuse'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("function=@axpy"),
                  std::string::npos)
            << e.what();
    }

    const std::string redeclared = "int spare;\n" + source;
    Compiled next = compile(redeclared, first.asPrevious(),
                            ir::VerifyMode::Boundaries);
    EXPECT_TRUE(next.result.reused.empty());
    expectSameAsFresh(next, redeclared);
}

// The reuse checks above compare against a fresh compile, which is
// only meaningful if two fresh compiles agree. mem2reg used to feed a
// block's phis in alloca-address order, so a constant feeding several
// phis (sad's loop counters) listed them as users in an order that
// changed from one compile to the next.
TEST(FrontendReuse, FreshCompilesListUsersInOneOrder)
{
    for (const auto &p : benchmarks::nasParboilSuite()) {
        Compiled a = compile(p.source);
        Compiled b = compile(p.source);
        EXPECT_EQ(usersOrder(*a.module), usersOrder(*b.module)) << p.name;
    }
}
