/**
 * @file
 * The service line protocol (version 1).
 *
 * Requests are single lines of space-separated tokens; SUBMIT carries
 * a source payload either counted in bytes or delimited heredoc-style
 * (convenient for humans on the stdio REPL). Responses are one `OK
 * key=value ...` or `ERR message` line, optionally followed by detail
 * lines and a terminating `END` for multi-line responses. The full
 * grammar lives in docs/SERVICE.md.
 *
 *   HELLO
 *   SUBMIT <module> <nbytes> [DEADLINE_MS=<n>]\n<nbytes of source>
 *   SUBMIT <module> <<TERM [DEADLINE_MS=<n>]\n<source lines...>\nTERM
 *   MATCHES <module>
 *   STATS
 *   CAPACITY <n>
 *   DROP <module>
 *   RESET
 *   QUIT
 *
 * This header is the wire-format seam shared by the server, the
 * tests and the example client: request parsing on one side,
 * response rendering from service outcome structs on the other.
 */
#ifndef SERVICE_PROTOCOL_H
#define SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/match_cache.h"
#include "service/service.h"

namespace repro::service {

/** Protocol revision reported by HELLO. */
constexpr int kProtocolVersion = 1;

/**
 * Upper bound on a SUBMIT payload, counted or heredoc (and on any
 * single request line). Oversized counted submissions are rejected
 * before any buffer is allocated, so a hostile byte count can not
 * drive std::string::resize into std::length_error / bad_alloc and
 * take the daemon down; oversized heredocs fail the one request.
 */
constexpr size_t kMaxPayloadBytes = 16u * 1024 * 1024;

/** One parsed request line (payload not yet read for SUBMIT). */
struct Request
{
    enum class Verb
    {
        Hello,
        Submit,
        Matches,
        Stats,
        Capacity,
        Drop,
        Reset,
        Quit,
        Invalid,
    };

    Verb verb = Verb::Invalid;
    std::string module;     ///< SUBMIT / MATCHES / DROP
    size_t payloadBytes = 0; ///< SUBMIT counted form
    std::string terminator; ///< SUBMIT heredoc form; empty otherwise
    size_t capacity = 0;    ///< CAPACITY
    /** SUBMIT per-request solve deadline; 0 = daemon default. */
    uint64_t deadlineMillis = 0;
    std::string error;      ///< Verb::Invalid diagnosis
};

/** Split a line into whitespace-separated tokens. */
std::vector<std::string> tokenize(const std::string &line);

/** Parse one request line (never reads the SUBMIT payload). */
Request parseRequest(const std::string &line);

/** Lowercase wire token of an idiom class, e.g. "scalar_reduction". */
std::string classToken(idioms::IdiomClass cls);

/** 16-digit lowercase hex rendering used for all hashes. */
std::string hashToken(uint64_t hash);

/**
 * Render a SUBMIT / MATCHES response: the OK summary line, one FUNC
 * line per function, one MATCH line per match, and END — or a single
 * ERR line when the outcome failed.
 */
std::vector<std::string>
formatSubmitResponse(const SubmitOutcome &outcome);

/**
 * Render the STATS response line. New keys are only ever appended
 * after sessions=, so a client reading the earlier keys keeps working.
 */
std::string formatStats(const driver::CacheCounters &counters,
                        size_t entries, size_t capacity,
                        size_t sessions, const ServiceCounters &service);

} // namespace repro::service

#endif // SERVICE_PROTOCOL_H
