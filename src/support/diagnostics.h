/**
 * @file
 * Diagnostics support: source locations and structured error reporting
 * shared by the MiniC frontend and the IDL compiler.
 */
#ifndef SUPPORT_DIAGNOSTICS_H
#define SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace repro {

/** A line/column position inside a named source buffer. */
struct SourceLoc
{
    int line = 0;
    int column = 0;

    bool valid() const { return line > 0; }
    std::string str() const;
};

/** Severity of a reported diagnostic. */
enum class DiagKind
{
    Error,
    Warning,
    Note,
};

/** One diagnostic message attached to a source location. */
struct Diagnostic
{
    DiagKind kind = DiagKind::Error;
    SourceLoc loc;
    std::string message;

    std::string str() const;
};

/**
 * Accumulates diagnostics during a compilation phase.
 *
 * All front ends in this project report problems through a DiagEngine so
 * that tests can assert on structured diagnostics instead of scraping
 * stderr.
 */
class DiagEngine
{
  public:
    void error(SourceLoc loc, const std::string &msg);
    void warning(SourceLoc loc, const std::string &msg);
    void note(SourceLoc loc, const std::string &msg);

    bool hasErrors() const { return numErrors_ > 0; }
    int numErrors() const { return numErrors_; }
    const std::vector<Diagnostic> &all() const { return diags_; }

    /** Render every diagnostic, one per line. */
    std::string dump() const;

    void clear();

  private:
    std::vector<Diagnostic> diags_;
    int numErrors_ = 0;
};

/**
 * Exception thrown for conditions that indicate a bug in this library
 * rather than bad user input (gem5's panic() analogue).
 */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &what)
        : std::logic_error(what)
    {}
};

/**
 * Exception thrown when user input (source text, IDL program, malformed
 * IR) cannot be processed further (gem5's fatal() analogue).
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Abort with an InternalError if @p cond does not hold. */
inline void
reproAssert(bool cond, const char *msg)
{
    if (!cond)
        throw InternalError(msg);
}

} // namespace repro

#endif // SUPPORT_DIAGNOSTICS_H
