#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>

namespace {

// --- A minimal JSON reader (objects, arrays, strings, numbers, bools) --

struct Json {
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    const Json *find(std::string_view key) const
    {
        for (const auto &[k, v] : fields) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(std::string_view s) : s_(s) {}

    bool parseDocument(Json &out)
    {
        return parseValue(out, 0) && (skipSpace(), pos_ == s_.size());
    }

  private:
    void skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool eat(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool parseString(std::string &out)
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                c = s_[pos_++];
                if (c == 'n')
                    c = '\n';
                else if (c == 't')
                    c = '\t';
                else if (c != '"' && c != '\\' && c != '/')
                    return false;  // \uXXXX never appears in our files
            }
            out += c;
        }
        return eat('"');
    }

    bool parseValue(Json &out, int depth)
    {
        if (depth > 32)
            return false;
        skipSpace();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{') {
            out.type = Json::Type::Object;
            ++pos_;
            if (eat('}'))
                return true;
            do {
                std::string key;
                Json value;
                if (!parseString(key) || !eat(':') ||
                    !parseValue(value, depth + 1))
                    return false;
                out.fields.emplace_back(std::move(key), std::move(value));
            } while (eat(','));
            return eat('}');
        }
        if (c == '[') {
            out.type = Json::Type::Array;
            ++pos_;
            if (eat(']'))
                return true;
            do {
                Json value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.items.push_back(std::move(value));
            } while (eat(','));
            return eat(']');
        }
        if (c == '"') {
            out.type = Json::Type::String;
            return parseString(out.text);
        }
        for (const auto &[word, type, value] :
             {std::tuple{"true", Json::Type::Bool, true},
              std::tuple{"false", Json::Type::Bool, false},
              std::tuple{"null", Json::Type::Null, false}}) {
            if (s_.substr(pos_).starts_with(word)) {
                pos_ += std::string_view(word).size();
                out.type = type;
                out.boolean = value;
                return true;
            }
        }
        const std::string rest(s_.substr(pos_, 64));
        char *end = nullptr;
        out.number = std::strtod(rest.c_str(), &end);
        if (end == rest.c_str())
            return false;
        out.type = Json::Type::Number;
        pos_ += static_cast<std::size_t>(end - rest.c_str());
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

// --- Benchmark definition and run records ---------------------------------

struct MetricSpec {
    std::string name;
    std::string unit;
    bool lowerIsBetter = true;
    double bound = 0.0;
};

struct Definition {
    std::vector<std::string> workloads;
    std::vector<MetricSpec> endToEnd;
    std::vector<MetricSpec> perLayer;
};

struct Record {
    std::string workload;
    bool traced = false;
    std::map<std::string, double> metrics;
};

/** values grouped as [workload][metric]; traced runs keep their own. */
using Grouped = std::map<std::string,
                         std::map<std::string, std::vector<double>>>;

struct RunSet {
    Grouped untraced;
    Grouped traced;
};

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

std::vector<MetricSpec>
metricList(const Json *list)
{
    std::vector<MetricSpec> specs;
    if (list == nullptr)
        return specs;
    for (const Json &item : list->items) {
        MetricSpec m;
        if (const Json *v = item.find("name"))
            m.name = v->text;
        if (const Json *v = item.find("unit"))
            m.unit = v->text;
        if (const Json *v = item.find("better"))
            m.lowerIsBetter = v->text != "higher";
        if (const Json *v = item.find("bound"))
            m.bound = v->number;
        specs.push_back(m);
    }
    return specs;
}

bool
loadDefinition(const std::string &path, Definition &def)
{
    std::string text;
    Json doc;
    if (!readFile(path, text) || !JsonReader(text).parseDocument(doc)) {
        std::cerr << "compare: cannot read " << path << "\n";
        return false;
    }
    if (const Json *list = doc.find("workloads")) {
        for (const Json &w : list->items) {
            if (const Json *name = w.find("name"))
                def.workloads.push_back(name->text);
        }
    }
    def.endToEnd = metricList(doc.find("end_to_end"));
    def.perLayer = metricList(doc.find("per_layer"));
    return !def.workloads.empty() && !def.endToEnd.empty();
}

/** Parse and validate one record line; @return the number of errors. */
int
readRecord(const std::string &line, const Definition &def, Record &rec)
{
    Json doc;
    const Json *workload = nullptr, *trace = nullptr, *result = nullptr;
    if (!JsonReader(line).parseDocument(doc) ||
        !(workload = doc.find("workload")) || !(trace = doc.find("trace")) ||
        !(result = doc.find("result"))) {
        std::cerr << "compare: malformed record: " << line << "\n";
        return 1;
    }
    rec.workload = workload->text;
    rec.traced = trace->number != 0.0;
    int errors = 0;
    const Json *correct = result->find("correct");
    if (correct == nullptr || !correct->boolean) {
        std::cerr << "compare: " << rec.workload
                  << ": correctness gate failed\n";
        ++errors;
    }
    const Json *metrics = result->find("metrics");
    for (const MetricSpec &spec : rec.traced ? def.perLayer : def.endToEnd) {
        const Json *m = metrics ? metrics->find(spec.name) : nullptr;
        const Json *value = m ? m->find("value") : nullptr;
        const Json *unit = m ? m->find("unit") : nullptr;
        if (value == nullptr || value->type != Json::Type::Number ||
            unit == nullptr || unit->text != spec.unit) {
            std::cerr << "compare: " << rec.workload << ": metric "
                      << spec.name << " missing or not in " << spec.unit
                      << "\n";
            ++errors;
            continue;
        }
        rec.metrics[spec.name] = value->number;
    }
    return errors;
}

int
loadRuns(const std::string &path, const Definition &def, RunSet &set)
{
    std::string text;
    if (!readFile(path, text)) {
        std::cerr << "compare: cannot read " << path << "\n";
        return 1;
    }
    int errors = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        Record rec;
        errors += readRecord(line, def, rec);
        Grouped &into = rec.traced ? set.traced : set.untraced;
        for (const auto &[name, value] : rec.metrics)
            into[rec.workload][name].push_back(value);
    }
    return errors;
}

// --- Statistics -------------------------------------------------------------

struct Summary {
    std::size_t n = 0;
    double q1 = 0.0, median = 0.0, q3 = 0.0;

    /** Quartile distance as a share of the median. */
    double spread() const
    {
        return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
    }
};

/** Median and quartiles as Python's statistics.quantiles(n=4) gives
 *  them (the "exclusive" method). */
Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
        s.q1 = s.median = s.q3 = v[0];
        return s;
    }
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double q[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                        static_cast<double>(4 - delta) +
                    v[static_cast<std::size_t>(j)] *
                        static_cast<double>(delta)) /
                   4.0;
    }
    s.q1 = q[0];
    s.median = q[1];
    s.q3 = q[2];
    return s;
}

const std::vector<double> *
valuesOf(const Grouped &g, const std::string &workload,
         const std::string &metric)
{
    auto w = g.find(workload);
    if (w == g.end())
        return nullptr;
    auto m = w->second.find(metric);
    return m != w->second.end() ? &m->second : nullptr;
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.5g", v);
    return buf;
}

void
printSummary(const Definition &def, const RunSet &set)
{
    for (const std::string &w : def.workloads) {
        std::cout << w << "\n";
        for (const MetricSpec &spec : def.endToEnd) {
            const auto *values = valuesOf(set.untraced, w, spec.name);
            if (values == nullptr)
                continue;
            const Summary s = summarize(*values);
            std::cout << "  " << spec.name << " = " << fmt(s.median) << " "
                      << spec.unit << " [" << fmt(s.q1) << ", "
                      << fmt(s.q3) << "] spread " << fmt(100 * s.spread())
                      << "% (bound " << fmt(100 * spec.bound) << "%, n="
                      << s.n << ")"
                      << (s.spread() > spec.bound ? "  NOISY" : "") << "\n";
        }
        for (const MetricSpec &spec : def.perLayer) {
            const auto *values = valuesOf(set.traced, w, spec.name);
            if (values == nullptr)
                continue;
            const Summary s = summarize(*values);
            std::cout << "  [layer] " << spec.name << " = "
                      << fmt(s.median) << " " << spec.unit << " ["
                      << fmt(s.q1) << ", " << fmt(s.q3) << "] (n=" << s.n
                      << ")\n";
        }
        const auto *traced = valuesOf(set.traced, w, "trace.throughput_rps");
        const auto *plain = valuesOf(set.untraced, w, "throughput_rps");
        if (traced && plain) {
            const double kept = summarize(*traced).median /
                                summarize(*plain).median;
            std::cout << "  tracing overhead: traced throughput is "
                      << fmt(100 * kept) << "% of the untraced median\n";
        }
    }
}

/** @return the number of regressions. */
int
printComparison(const Definition &def, const RunSet &base,
                const RunSet &head)
{
    int regressions = 0;
    std::cout << "\nbase -> head, end-to-end (bound = allowed worsening)\n";
    for (const std::string &w : def.workloads) {
        for (const MetricSpec &spec : def.endToEnd) {
            const auto *b = valuesOf(base.untraced, w, spec.name);
            const auto *h = valuesOf(head.untraced, w, spec.name);
            if (b == nullptr || h == nullptr)
                continue;
            const Summary sb = summarize(*b), sh = summarize(*h);
            const double sign = spec.lowerIsBetter ? 1.0 : -1.0;
            const double worse =
                sb.median != 0.0
                    ? sign * (sh.median - sb.median) / std::fabs(sb.median)
                    : 0.0;
            // Every head run better than every base run settles a
            // comparison the spread alone would leave open.
            const double bestBase = spec.lowerIsBetter
                                        ? *std::min_element(b->begin(),
                                                            b->end())
                                        : *std::max_element(b->begin(),
                                                            b->end());
            const double worstHead = spec.lowerIsBetter
                                         ? *std::max_element(h->begin(),
                                                             h->end())
                                         : *std::min_element(h->begin(),
                                                             h->end());
            const bool allBetter = sign * (worstHead - bestBase) < 0.0;
            std::string verdict = "ok";
            if (sb.spread() > spec.bound || sh.spread() > spec.bound)
                verdict = allBetter ? "better" : "unresolved";
            else if (worse > spec.bound)
                verdict = "REGRESSION";
            else if (worse < -spec.bound)
                verdict = "better";
            if (verdict == "REGRESSION")
                ++regressions;
            std::cout << "  " << w << " " << spec.name << ": "
                      << fmt(sb.median) << " -> " << fmt(sh.median) << " "
                      << spec.unit << " (" << (worse > 0 ? "+" : "")
                      << fmt(100 * worse) << "% worse, bound "
                      << fmt(100 * spec.bound) << "%): " << verdict << "\n";
        }
    }
    std::cout << "\nbase -> head, per layer (no bound)\n";
    for (const std::string &w : def.workloads) {
        for (const MetricSpec &spec : def.perLayer) {
            const auto *b = valuesOf(base.traced, w, spec.name);
            const auto *h = valuesOf(head.traced, w, spec.name);
            if (b == nullptr || h == nullptr)
                continue;
            std::cout << "  " << w << " " << spec.name << ": "
                      << fmt(summarize(*b).median) << " -> "
                      << fmt(summarize(*h).median) << " " << spec.unit
                      << "\n";
        }
    }
    return regressions;
}

} // namespace

int
runCompare(const std::string &benchmark_json,
           const std::vector<std::string> &run_files)
{
    Definition def;
    if (!loadDefinition(benchmark_json, def))
        return 1;
    std::vector<RunSet> sets(run_files.size());
    int errors = 0;
    for (std::size_t i = 0; i < run_files.size(); ++i)
        errors += loadRuns(run_files[i], def, sets[i]);
    for (std::size_t i = 0; i < sets.size(); ++i) {
        std::cout << "== " << run_files[i] << "\n";
        printSummary(def, sets[i]);
    }
    const int regressions =
        sets.size() == 2 ? printComparison(def, sets[0], sets[1]) : 0;
    if (errors > 0)
        std::cerr << "compare: " << errors << " invalid record field(s)\n";
    return errors > 0 || regressions > 0 ? 1 : 0;
}
