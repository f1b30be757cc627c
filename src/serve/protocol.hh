/**
 * @file
 * gpsm_serve wire protocol: JSONL request/response framing over a
 * local Unix-domain stream socket, plus the ExperimentConfig <-> JSON
 * codec shared by the daemon, the client library and the tests.
 *
 * Framing: one obs::Json document per line (compact dump, '\n'
 * terminated). Requests carry an "op" and a client-chosen "id"; every
 * response echoes both, so clients may pipeline any number of
 * requests per connection and match responses out of order.
 *
 * Ops:
 *   run   {"op":"run","id":N,"config":{...},"fingerprint":"...",
 *          "deadlineSeconds":X,"retries":N}      -> result / error
 *   sleep {"op":"sleep","id":N,"seconds":X}      occupy one worker
 *                                                (tests and load
 *                                                generation only)
 *   stats {"op":"stats","id":N}                  service counters
 *   metrics {"op":"metrics","id":N,
 *            "format":"json"|"prometheus"}       stats snapshot as a
 *                                                JSON object and/or
 *                                                Prometheus text
 *   ping  {"op":"ping","id":N}                   liveness probe
 *   drain {"op":"drain","id":N}                  begin graceful drain
 *   subscribe   {"op":"subscribe","id":N,
 *                "capacity":C}                   attach this
 *                                                connection to the
 *                                                live event stream
 *   unsubscribe {"op":"unsubscribe","id":N}      detach; reports
 *                                                delivered/dropped
 *
 * Event framing: a subscribed connection receives gpsm-event-v1
 * records interleaved with its responses, one JSON object per line
 * like everything else. Events are distinguished from responses by
 * the presence of a "schema" key (responses never carry one) and the
 * absence of an "id". A subscriber's buffer is bounded (the
 * "capacity" it requested); when the subscriber reads too slowly the
 * daemon drops events for that subscriber — counted, reported by
 * unsubscribe and the stats/metrics ops — instead of ever blocking a
 * running experiment.
 *
 * The "fingerprint" field of a run request is the client's locally
 * computed ExperimentConfig::fingerprint(); the daemon recomputes it
 * from the decoded config and rejects the request as invalid on any
 * mismatch. That turns silent codec drift (a new config field one
 * side does not serialize) into a loud per-request error instead of a
 * wrong memo key.
 *
 * Error kinds in responses: a run's execution errors are the pool's
 * core::experimentErrorKindName() vocabulary — "timeout",
 * "exception", "interrupted" (a run cancelled in flight by a hard
 * stop) — since runs go through core::runGuarded. Service-level kinds
 * are "overloaded" (queue full, request shed), "shutdown" (only a
 * request rejected while the daemon drains, or a sleep cancelled by
 * a hard stop), and "invalid" (malformed request or codec
 * mismatch).
 */

#ifndef GPSM_SERVE_PROTOCOL_HH
#define GPSM_SERVE_PROTOCOL_HH

#include <optional>
#include <string>

#include "core/experiment.hh"
#include "obs/json.hh"

namespace gpsm::serve
{

/**
 * Encode @p config as a JSON object. Fields at their default value
 * are omitted; the result decodes (configFromJson) to a config with
 * the identical fingerprint — asserted internally, so a config that
 * uses a field the codec does not cover is a fatal() at encode time
 * (never a silently wrong request on the wire).
 */
obs::Json configToJson(const core::ExperimentConfig &config);

/**
 * Inverse of configToJson: decode starting from a default-constructed
 * config (or the named system preset). Unknown keys, unknown enum
 * spellings and type mismatches are fatal() — the caller (daemon)
 * catches FatalError and reports an "invalid" response.
 */
core::ExperimentConfig configFromJson(const obs::Json &doc);

/**
 * Send one line-framed document: compact dump + '\n', written fully
 * (partial sends retried), SIGPIPE suppressed. @return false when
 * the peer is gone or the write failed.
 */
bool sendLine(int fd, const obs::Json &doc);

/**
 * Send pre-serialized line-framed bytes (@p line must already end in
 * '\n' — the event pump forwards EventBus lines without re-encoding).
 * Same write-fully/no-SIGPIPE contract as sendLine.
 */
bool sendRawLine(int fd, const std::string &line);

/**
 * Buffered line reader over one socket. Not thread-safe; each
 * connection has exactly one reader.
 */
class LineReader
{
  public:
    explicit LineReader(int fd) : sock(fd) {}

    /**
     * Next complete line, blocking up to @p timeout_ms (-1 = forever).
     * @return nullopt on EOF, error or timeout; eof() distinguishes a
     * closed peer from a timeout.
     */
    std::optional<std::string> readLine(int timeout_ms = -1);

    bool eof() const { return sawEof; }

  private:
    int sock;
    std::string buffer;
    bool sawEof = false;
};

/** readLine + parse; nullopt on EOF/timeout/unparsable line. */
std::optional<obs::Json> readMessage(LineReader &reader,
                                     int timeout_ms = -1);

} // namespace gpsm::serve

#endif // GPSM_SERVE_PROTOCOL_HH
