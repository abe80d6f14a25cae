#include "idl/lower.h"

#include <limits>
#include <set>
#include <sstream>

#include "support/string_utils.h"

namespace repro::idl {

using solver::Node;
using solver::NodePtr;

namespace {

/** Lowering environment: template parameters and the collect marker. */
struct Env
{
    std::map<std::string, int64_t> values;
    std::set<std::string> markers; ///< collect indices -> '#'
};

/**
 * Evaluate a calculation; returns false if it names a marker. Throws
 * when the sum leaves int64.
 */
bool
evalCalc(const Calc &calc, const Env &env, int64_t &out,
         const std::string &context)
{
    constexpr int64_t lo = std::numeric_limits<int64_t>::min();
    constexpr int64_t hi = std::numeric_limits<int64_t>::max();
    int64_t acc = 0;
    for (const auto &term : calc.terms) {
        int64_t v;
        if (term.isName) {
            if (env.markers.count(term.name))
                return false;
            auto it = env.values.find(term.name);
            if (it == env.values.end()) {
                throw FatalError("IDL lowering: unknown parameter '" +
                                 term.name + "' in " + context);
            }
            v = it->second;
        } else {
            v = term.literal;
        }
        const bool overflow = term.sign > 0
                                  ? (v > 0 ? acc > hi - v : acc < lo - v)
                                  : (v > 0 ? acc < lo + v : acc > hi + v);
        if (overflow) {
            throw FatalError("IDL lowering: integer overflow in " +
                             context);
        }
        acc = term.sign > 0 ? acc + v : acc - v;
    }
    out = acc;
    return true;
}

/**
 * Reject a variable index the solver cannot hold. Indices are read
 * back as int, and an index i needs i + 1 expansion slots, so the
 * largest one is INT_MAX - 1.
 */
void
checkIndex(int64_t v, const std::string &component)
{
    if (v < 0 || v > std::numeric_limits<int>::max() - 1) {
        throw FatalError("IDL lowering: index " + std::to_string(v) +
                         " of '" + component + "' out of range");
    }
}

/** Reject a range lo .. hi (exclusive) of more than kMaxExpansion
 *  values; @p what names it in the error. */
void
checkRangeWidth(int64_t lo, int64_t hi, const std::string &what)
{
    // Unsigned subtraction: hi - lo may not fit int64.
    if (hi > lo && static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) >
                       static_cast<uint64_t>(kMaxExpansion)) {
        throw FatalError("IDL lowering: range " + std::to_string(lo) +
                         " .. " + std::to_string(hi) + " of " + what +
                         " is wider than " +
                         std::to_string(kMaxExpansion));
    }
}

/** Flatten a VarRef into a variable name string under @p env. */
std::string
flattenVar(const VarRef &ref, const Env &env)
{
    std::ostringstream os;
    for (size_t i = 0; i < ref.components.size(); ++i) {
        if (i)
            os << ".";
        const auto &comp = ref.components[i];
        os << comp.name;
        if (comp.wildcard) {
            os << "[*]";
        } else if (comp.hasIndex) {
            int64_t v;
            if (evalCalc(comp.index, env, v, comp.name)) {
                checkIndex(v, comp.name);
                os << "[" << v << "]";
            } else {
                os << "[#]";
            }
        }
    }
    return os.str();
}

/** Flatten one varlist entry; ranges expand into several names. */
void
flattenListEntry(const VarRef &ref, const Env &env,
                 std::vector<std::string> &out)
{
    // Find a range component, if any.
    int range_at = -1;
    for (size_t i = 0; i < ref.components.size(); ++i) {
        if (ref.components[i].hasRange) {
            range_at = static_cast<int>(i);
            break;
        }
    }
    if (range_at < 0) {
        out.push_back(flattenVar(ref, env));
        return;
    }
    const auto &comp = ref.components[range_at];
    int64_t lo, hi;
    if (!evalCalc(comp.rangeBegin, env, lo, comp.name) ||
        !evalCalc(comp.rangeEnd, env, hi, comp.name)) {
        throw FatalError("IDL lowering: range bounds cannot use a "
                         "collect index");
    }
    checkRangeWidth(lo, hi, "'" + comp.name + "'");
    if (lo < hi) {
        checkIndex(lo, comp.name);
        checkIndex(hi - 1, comp.name);
    }
    for (int64_t k = lo; k < hi; ++k) {
        VarRef copy = ref;
        copy.components[range_at].hasRange = false;
        copy.components[range_at].hasIndex = true;
        Calc c;
        Calc::Term t;
        t.literal = k;
        c.terms.push_back(t);
        copy.components[range_at].index = c;
        out.push_back(flattenVar(copy, env));
    }
}

/**
 * Apply a rename/rebase mapping to a flattened variable name.
 *
 * Each rename pair maps an inner name (prefix) to an outer name;
 * longest inner prefix wins. Unmatched names get the rebase prefix if
 * present, otherwise stay unchanged.
 */
class NameMap
{
  public:
    NameMap(const std::vector<std::pair<VarRef, VarRef>> &renames,
            bool has_rebase, const VarRef &rebase_prefix,
            const Env &env)
    {
        for (const auto &[outer, inner] : renames)
            pairs_.emplace_back(flattenVar(inner, env),
                                flattenVar(outer, env));
        hasRebase_ = has_rebase;
        if (has_rebase)
            prefix_ = flattenVar(rebase_prefix, env);
    }

    std::string
    apply(const std::string &name) const
    {
        const std::pair<std::string, std::string> *best = nullptr;
        for (const auto &p : pairs_) {
            const std::string &inner = p.first;
            bool match =
                name == inner ||
                (name.size() > inner.size() &&
                 name.compare(0, inner.size(), inner) == 0 &&
                 (name[inner.size()] == '.' ||
                  name[inner.size()] == '['));
            if (match && (!best || inner.size() > best->first.size()))
                best = &p;
        }
        if (best)
            return best->second + name.substr(best->first.size());
        if (hasRebase_)
            return prefix_ + "." + name;
        return name;
    }

  private:
    std::vector<std::pair<std::string, std::string>> pairs_;
    bool hasRebase_ = false;
    std::string prefix_;
};

void
applyNameMap(Node &node, const NameMap &map)
{
    for (auto &v : node.vars)
        v = map.apply(v);
    for (auto &list : node.varLists) {
        for (auto &v : list)
            v = map.apply(v);
    }
    for (auto &child : node.children)
        applyNameMap(*child, map);
    if (node.collectBody)
        applyNameMap(*node.collectBody, map);
}

/** The lowering engine. */
class Lowerer
{
  public:
    explicit Lowerer(const IdlProgram &program) : program_(program) {}

    NodePtr
    lowerDef(const ConstraintDef &def, Env env, int depth)
    {
        if (depth > 32) {
            throw FatalError(
                "IDL lowering: inheritance depth exceeded (cycle?)");
        }
        return lower(*def.body, env, depth);
    }

    NodePtr
    lower(const Constraint &c, const Env &env, int depth)
    {
        switch (c.kind) {
          case Constraint::Kind::Atomic: {
            auto node = std::make_unique<Node>();
            node->kind = Node::Kind::Atomic;
            node->loc = c.loc;
            node->atomic = c.atomic;
            node->opcodeName = c.opcodeName;
            node->argPosition = c.argPosition;
            node->negated = c.negated;
            node->strict = c.strict;
            node->postDom = c.postDom;
            node->flow = c.flow;
            for (const auto &v : c.vars)
                node->vars.push_back(flattenVar(v, env));
            for (const auto &list : c.varLists) {
                std::vector<std::string> flat;
                for (const auto &v : list)
                    flattenListEntry(v, env, flat);
                node->varLists.push_back(std::move(flat));
            }
            return node;
          }
          case Constraint::Kind::Conjunction:
          case Constraint::Kind::Disjunction: {
            auto node = std::make_unique<Node>();
            node->kind = c.kind == Constraint::Kind::Conjunction
                             ? Node::Kind::And
                             : Node::Kind::Or;
            node->loc = c.loc;
            for (const auto &child : c.children)
                node->children.push_back(lower(*child, env, depth));
            return node;
          }
          case Constraint::Kind::Inherit: {
            const ConstraintDef *def = program_.lookup(c.inheritName);
            if (!def) {
                throw FatalError("IDL lowering: unknown idiom '" +
                                 c.inheritName + "'");
            }
            Env inner;
            for (const auto &[pname, pdefault] : def->params)
                inner.values[pname] = pdefault;
            for (const auto &[pname, calc] : c.inheritParams) {
                int64_t v;
                if (!evalCalc(calc, env, v, c.inheritName)) {
                    throw FatalError("IDL lowering: collect index in "
                                     "inherit parameter");
                }
                inner.values[pname] = v;
            }
            // Collect markers remain visible inside inherited
            // definitions so that "at {read[i]}" works under collect.
            inner.markers = env.markers;
            return lowerDef(*def, inner, depth + 1);
          }
          case Constraint::Kind::ForAll:
          case Constraint::Kind::ForSome: {
            int64_t lo, hi;
            if (!evalCalc(c.rangeBegin, env, lo, "range") ||
                !evalCalc(c.rangeEnd, env, hi, "range")) {
                throw FatalError(
                    "IDL lowering: collect index in range bounds");
            }
            checkRangeWidth(lo, hi,
                            "'" + c.indexName + "' at " + c.loc.str());
            auto node = std::make_unique<Node>();
            node->kind = c.kind == Constraint::Kind::ForAll
                             ? Node::Kind::And
                             : Node::Kind::Or;
            node->loc = c.loc;
            for (int64_t i = lo; i < hi; ++i) {
                Env inner = env;
                inner.values[c.indexName] = i;
                inner.markers.erase(c.indexName);
                node->children.push_back(
                    lower(*c.children[0], inner, depth));
            }
            return node;
          }
          case Constraint::Kind::ForOne: {
            int64_t v;
            if (!evalCalc(c.rangeEnd, env, v, "for")) {
                throw FatalError(
                    "IDL lowering: collect index in 'for' binding");
            }
            Env inner = env;
            inner.values[c.indexName] = v;
            inner.markers.erase(c.indexName);
            return lower(*c.children[0], inner, depth);
          }
          case Constraint::Kind::If: {
            int64_t l, r;
            if (!evalCalc(c.ifLeft, env, l, "if") ||
                !evalCalc(c.ifRight, env, r, "if")) {
                throw FatalError(
                    "IDL lowering: collect index in 'if' condition");
            }
            return lower(*c.children[l == r ? 0 : 1], env, depth);
          }
          case Constraint::Kind::Rename: {
            NodePtr inner = lower(*c.children[0], env, depth);
            NameMap map(c.renames, c.hasRebase, c.rebasePrefix, env);
            applyNameMap(*inner, map);
            return inner;
          }
          case Constraint::Kind::Collect: {
            auto node = std::make_unique<Node>();
            node->kind = Node::Kind::Collect;
            node->loc = c.loc;
            node->collectMax = c.collectMax;
            Env inner = env;
            inner.values.erase(c.indexName);
            inner.markers.insert(c.indexName);
            node->collectBody = lower(*c.children[0], inner, depth);
            return node;
          }
        }
        throw FatalError("IDL lowering: unhandled node");
    }

  private:
    const IdlProgram &program_;
};

} // namespace

solver::ConstraintProgram
lowerIdiom(const IdlProgram &program, const std::string &name,
           const std::map<std::string, int64_t> &params)
{
    const ConstraintDef *def = program.lookup(name);
    if (!def)
        throw FatalError("IDL lowering: unknown idiom '" + name + "'");
    Env env;
    for (const auto &[pname, pdefault] : def->params)
        env.values[pname] = pdefault;
    for (const auto &[pname, value] : params)
        env.values[pname] = value;
    Lowerer lowerer(program);
    solver::ConstraintProgram out;
    out.name = name;
    out.root = lowerer.lowerDef(*def, env, 0);
    return out;
}

} // namespace repro::idl
