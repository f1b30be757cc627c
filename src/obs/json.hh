/**
 * @file
 * Minimal JSON value model, parser and writer for the telemetry layer.
 *
 * The repo takes no third-party dependencies, so the observability
 * subsystem carries its own small JSON implementation: enough to write
 * metrics documents and Chrome trace_event files, and to read them
 * back in gpsm_report. It is a strict subset of RFC 8259: UTF-8 pass-
 * through (no \uXXXX decoding beyond verbatim copy), doubles via
 * strtod/%.17g, and objects preserving insertion order so emitted
 * documents are deterministic and diffable.
 */

#ifndef GPSM_OBS_JSON_HH
#define GPSM_OBS_JSON_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gpsm::obs
{

/**
 * One JSON value. A tagged union over the seven JSON kinds; object
 * members keep insertion order (deterministic output, stable diffs).
 */
class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), boolean(b) {}
    Json(double d) : kind_(Kind::Number), number(d) {}
    Json(std::int64_t i)
        : kind_(Kind::Number), number(static_cast<double>(i))
    {
    }
    Json(std::uint64_t u)
        : kind_(Kind::Number), number(static_cast<double>(u))
    {
    }
    Json(int i) : kind_(Kind::Number), number(i) {}
    Json(std::string s) : kind_(Kind::String), str(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), str(s) {}

    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    Kind kind() const { return kind_; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const { return boolean; }
    double asNumber() const { return number; }
    const std::string &asString() const { return str; }

    /** @name Array access @{ */
    void push(Json v) { items.push_back(std::move(v)); }
    const std::vector<Json> &elements() const { return items; }
    std::size_t size() const
    {
        return kind_ == Kind::Object ? members.size() : items.size();
    }
    /** @} */

    /** @name Object access @{ */
    /** Set @p key (replacing an existing member in place). */
    void set(const std::string &key, Json v);
    /** Member lookup; nullptr when absent (or not an object). */
    const Json *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &
    entries() const
    {
        return members;
    }
    /** @} */

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces per
     * level; 0 produces the compact single-line form (JSONL-safe).
     * Numbers that hold integral values within uint64/int64 range are
     * written without a decimal point, so counters round-trip exactly.
     */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> members;
};

/** Append the JSON string escape of @p s (without quotes) to @p out. */
void jsonEscape(const std::string &s, std::string &out);

/**
 * Parse one JSON document. @return nullopt on any syntax error (with
 * the offending byte offset in @p error_offset when non-null).
 * Trailing non-whitespace after the document is an error.
 */
std::optional<Json> parseJson(const std::string &text,
                              std::size_t *error_offset = nullptr);

} // namespace gpsm::obs

#endif // GPSM_OBS_JSON_HH
