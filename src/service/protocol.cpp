#include "service/protocol.h"

#include <cstdio>
#include <sstream>

#include "support/string_utils.h"

namespace repro::service {

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return tokens;
}

namespace {

Request
invalid(const std::string &why)
{
    Request r;
    r.error = why;
    return r;
}

} // namespace

Request
parseRequest(const std::string &line)
{
    auto tokens = tokenize(line);
    if (tokens.empty())
        return invalid("empty request");
    const std::string &verb = tokens[0];
    Request r;

    if (verb == "HELLO") {
        if (tokens.size() != 1)
            return invalid("HELLO takes no arguments");
        r.verb = Request::Verb::Hello;
    } else if (verb == "SUBMIT") {
        if (tokens.size() != 3 && tokens.size() != 4) {
            return invalid("usage: SUBMIT <module> <nbytes|<<TERM> "
                           "[DEADLINE_MS=<n>]");
        }
        r.module = tokens[1];
        if (tokens[2].size() > 2 && tokens[2][0] == '<' &&
            tokens[2][1] == '<') {
            r.terminator = tokens[2].substr(2);
        } else if (!parseDecimal(tokens[2], &r.payloadBytes)) {
            return invalid("SUBMIT payload size is not a number");
        }
        if (tokens.size() == 4) {
            const std::string &opt = tokens[3];
            const std::string prefix = "DEADLINE_MS=";
            if (opt.compare(0, prefix.size(), prefix) != 0 ||
                !parseDecimal(opt.substr(prefix.size()),
                              &r.deadlineMillis))
                return invalid("bad SUBMIT option: " + opt);
        }
        r.verb = Request::Verb::Submit;
    } else if (verb == "MATCHES") {
        if (tokens.size() != 2)
            return invalid("usage: MATCHES <module>");
        r.module = tokens[1];
        r.verb = Request::Verb::Matches;
    } else if (verb == "STATS") {
        r.verb = Request::Verb::Stats;
    } else if (verb == "CAPACITY") {
        if (tokens.size() != 2 || !parseDecimal(tokens[1], &r.capacity))
            return invalid("usage: CAPACITY <entries>");
        r.verb = Request::Verb::Capacity;
    } else if (verb == "DROP") {
        if (tokens.size() != 2)
            return invalid("usage: DROP <module>");
        r.module = tokens[1];
        r.verb = Request::Verb::Drop;
    } else if (verb == "RESET") {
        r.verb = Request::Verb::Reset;
    } else if (verb == "QUIT") {
        r.verb = Request::Verb::Quit;
    } else {
        return invalid("unknown verb: " + verb);
    }
    return r;
}

std::string
classToken(idioms::IdiomClass cls)
{
    switch (cls) {
      case idioms::IdiomClass::ScalarReduction:
        return "scalar_reduction";
      case idioms::IdiomClass::HistogramReduction:
        return "histogram_reduction";
      case idioms::IdiomClass::Stencil:
        return "stencil";
      case idioms::IdiomClass::MatrixOp:
        return "matrix_op";
      case idioms::IdiomClass::SparseMatrixOp:
        return "sparse_matrix_op";
      case idioms::IdiomClass::Other:
        break;
    }
    return "other";
}

std::string
hashToken(uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::vector<std::string>
formatSubmitResponse(const SubmitOutcome &outcome)
{
    std::vector<std::string> lines;
    if (!outcome.ok) {
        lines.push_back("ERR " + outcome.error);
        return lines;
    }
    {
        std::ostringstream os;
        os << "OK module=" << outcome.module
           << " functions=" << outcome.functions
           << " matches=" << outcome.matches
           << " hits=" << outcome.cacheHits
           << " misses=" << outcome.cacheMisses;
        char ms[64];
        std::snprintf(ms, sizeof(ms),
                      " compile_ms=%.3f match_ms=%.3f",
                      outcome.compileMillis, outcome.matchMillis);
        os << ms;
        // Appended last so existing clients parsing the fixed prefix
        // keep working; only degraded responses carry the key at all.
        if (!outcome.degraded.empty())
            os << " degraded=" << outcome.degraded;
        lines.push_back(os.str());
    }
    for (const auto &fo : outcome.perFunction) {
        std::ostringstream os;
        os << "FUNC name=" << fo.name
           << " hash=" << hashToken(fo.contentHash)
           << " matches=" << fo.matches
           << " source=" << (fo.fromCache ? "cache" : "solve");
        lines.push_back(os.str());
    }
    for (const auto &mo : outcome.matchList) {
        std::ostringstream os;
        os << "MATCH function=" << mo.function
           << " idiom=" << mo.idiom
           << " class=" << classToken(mo.cls);
        // Cost-model submissions only (same compatibility discipline
        // as degraded= above): Fixed-policy MATCH lines stay
        // byte-identical to earlier protocol v1 servers.
        if (mo.hasBackend) {
            char ms[48];
            std::snprintf(ms, sizeof(ms), "%.6g", mo.predictedMs);
            os << " backend=" << mo.backend << " cost_ms=" << ms;
            if (!mo.rejected.empty()) {
                os << " alt=";
                bool first = true;
                for (const auto &[token, cost] : mo.rejected) {
                    std::snprintf(ms, sizeof(ms), "%.6g", cost);
                    os << (first ? "" : ",") << token << ":" << ms;
                    first = false;
                }
            }
        }
        lines.push_back(os.str());
    }
    lines.push_back("END");
    return lines;
}

std::string
formatStats(const driver::CacheCounters &counters, size_t entries,
            size_t capacity, size_t sessions,
            const ServiceCounters &service)
{
    std::ostringstream os;
    os << "OK entries=" << entries << " capacity=" << capacity
       << " hits=" << counters.hits << " misses=" << counters.misses
       << " evictions=" << counters.evictions
       << " insertions=" << counters.insertions
       << " sessions=" << sessions
       << " compile_reused=" << service.compileReused
       << " invalid_ir=" << service.invalidIr
       << " degraded_budget=" << service.degradedBudget
       << " degraded_deadline=" << service.degradedDeadline
       << " shed_connections=" << service.shedConnections
       << " shed_submits=" << service.shedSubmits;
    return os.str();
}

} // namespace repro::service
