/**
 * @file
 * Wire protocol of the `netchar serve` daemon.
 *
 * The protocol is newline-delimited JSON: every request is one JSON
 * object on one line, every response is one JSON object on one line.
 * A malformed request yields a structured error response, never a
 * dropped connection or a crash.
 *
 * Request grammar (docs/ARCHITECTURE.md, "Serving & caching"):
 *
 *   {"verb":"ping"}
 *   {"verb":"run","benchmark":NAME,
 *    "machine":"i9|xeon|arm","options":{...}}
 *   {"verb":"sweep","suite":"dotnet|aspnet|spec",
 *    "format":"csv|json","machine":...,"options":{...}}
 *   {"verb":"subset","suite":...,"size":K,"machine":...,
 *    "options":{...}}
 *   {"verb":"stats"}
 *   {"verb":"shutdown"}
 *
 * The "options" object accepts: warmup, measure, cores, seed,
 * jitHint, gcMode ("workstation"|"server"), gcAssist
 * ("software"|"hardware"), maxHeap, allocScale, quantum, runBudget.
 * Unknown top-level or option keys are a protocol error naming the
 * key — a typoed option must never silently fall back to a default
 * and poison the content-addressed cache with a mislabeled entry.
 *
 * Any request may also carry "deadlineMs": a per-request time budget
 * the server sheds against (0 / absent = none). The deadline is
 * operational metadata, not part of the result's identity, so it is
 * excluded from the cache key.
 *
 * Responses:
 *
 *   {"ok":true,"verb":V,...payload...}
 *   {"ok":true,"verb":V,"cache":"hit|miss","key":HEX,"body":...}
 *   {"ok":false,"error":MESSAGE}
 *   {"ok":false,"error":MESSAGE,"code":CODE[,"retryAfterMs":N]}
 *
 * where CODE names a machine-actionable refusal: "overloaded" (shed
 * by admission control; retry after the hint), "draining" (server is
 * shutting down; go elsewhere), "deadline" (the request's own budget
 * expired in queue), "oversized" (request line exceeded the framing
 * budget).
 *
 * Everything in a response is a pure function of the request and the
 * registry (no wall times, hostnames or pids), which is what makes
 * cached responses byte-identical to freshly computed ones.
 */

#ifndef NETCHAR_SERVE_PROTOCOL_HH
#define NETCHAR_SERVE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/characterize.hh"

namespace netchar::serve
{

// ---------------------------------------------------------------
// Minimal JSON document model (requests are tiny; no external lib).
// ---------------------------------------------------------------

/** One parsed JSON value. Object members keep source order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isObject() const { return kind == Kind::Object; }
};

/**
 * Parse one JSON document. Returns false with a descriptive message
 * in `error` on malformed input (trailing bytes after the document
 * are an error too — a request line is exactly one object).
 */
[[nodiscard]]
bool parseJson(std::string_view text, JsonValue &out,
               std::string &error);

// ---------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------

/** Thrown by parseRequest on any malformed request. The message is
 *  safe to send back verbatim in an error response. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Verbs the daemon answers. */
enum class Verb { Ping, Run, Sweep, Subset, Stats, Shutdown };

/** Wire name of a verb ("ping", "run", ...). */
std::string_view verbName(Verb verb);

/** One parsed request. */
struct Request
{
    Verb verb = Verb::Ping;
    std::string benchmark; ///< run
    std::string suite;     ///< sweep / subset
    std::string machine = "i9";
    std::string format = "csv"; ///< sweep: csv | json
    std::size_t subsetSize = 8; ///< subset
    /** Per-request time budget in milliseconds (0 = none). Not part
     *  of the cache key — a deadline changes whether a result is
     *  delivered, never what the result is. */
    std::uint64_t deadlineMs = 0;
    RunOptions options;
};

/**
 * Parse one request line. Throws ProtocolError on anything
 * malformed: bad JSON, missing/unknown verb, missing benchmark or
 * suite, unknown machine/format/option key, out-of-range values.
 * Field order inside the JSON is irrelevant and omitted option
 * fields equal their explicit defaults — the two invariances the
 * cache-key canonicalization tests pin down.
 */
Request parseRequest(const std::string &line);

/** Serialize a request (the client side of the wire). */
std::string requestLine(const Request &request);

// ---------------------------------------------------------------
// Responses. These four are the serve-layer serialization surface —
// netchar-lint's taint pass treats them as sinks, so nothing
// nondeterministic can flow into a transmitted or cached response.
// ---------------------------------------------------------------

/** `{"ok":true,"verb":V,"body":BODY}` — BODY is pre-rendered JSON. */
std::string okResponse(const std::string &verb,
                       const std::string &body);

/** As okResponse with cache attribution: `"cache":"hit|miss"` and
 *  the content-address `"key":HEX` of the body. */
std::string okCachedResponse(const std::string &verb, bool hit,
                             const std::string &key,
                             const std::string &body);

/** `{"ok":false,"error":MESSAGE}`. */
std::string errorResponse(const std::string &message);

/**
 * `{"ok":false,"error":MESSAGE,"code":CODE[,"retryAfterMs":N]}` — a
 * machine-actionable refusal. `retryAfterMs` is emitted only when
 * nonzero (the `overloaded` shed path's backoff hint, honored by
 * serve::Client).
 */
std::string errorCodeResponse(const std::string &code,
                              const std::string &message,
                              std::uint64_t retryAfterMs = 0);

/** A JSON string literal: quoted + escaped. */
std::string jsonString(const std::string &raw);

// ---------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------

/**
 * Incremental NDJSON line framer with a per-line byte budget.
 *
 * The daemon feeds raw socket chunks in whatever sizes the transport
 * delivers them — one byte at a time, several requests merged into
 * one segment, a frame split across many reads — and next() yields
 * exactly the complete lines, in order, independent of the chunking
 * (the adversarial-framing fuzz tests in tests/serve/ sweep every
 * split point). A '\r' before the delimiter is stripped.
 *
 * When a single line grows past `maxLineBytes` (0 = unlimited) the
 * framer latches overflowed(): no further lines are delivered and
 * buffered input is discarded, so a peer streaming an unbounded
 * "line" cannot balloon daemon memory. The caller answers with a
 * structured `oversized` error and drops the connection.
 */
class LineFramer
{
  public:
    explicit LineFramer(std::size_t maxLineBytes = 0)
        : maxLineBytes_(maxLineBytes)
    {
    }

    /** Accept more raw bytes from the transport. */
    void feed(std::string_view bytes);

    /** Pop the next complete line into `line` (delimiter and any
     *  trailing '\r' stripped). False when no complete line is
     *  buffered or the framer has overflowed. */
    bool next(std::string &line);

    /** True once any line exceeded the byte budget (sticky). */
    bool overflowed() const { return overflowed_; }

    /** Bytes buffered awaiting a delimiter. */
    std::size_t buffered() const { return buffer_.size(); }

    /** Forget buffered input and clear the overflow latch. */
    void reset();

  private:
    std::string buffer_;
    std::size_t maxLineBytes_ = 0;
    bool overflowed_ = false;
};

} // namespace netchar::serve

#endif // NETCHAR_SERVE_PROTOCOL_HH
