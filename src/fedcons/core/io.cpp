#include "fedcons/core/io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "fedcons/util/check.h"

namespace fedcons {

namespace {

/// Strip comments and surrounding whitespace; empty result means skip.
std::string clean_line(const std::string& raw) {
  std::string line = raw;
  auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  auto last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

Time parse_time(const std::string& token, int line_no, const char* what) {
  Time v = 0;
  try {
    std::size_t pos = 0;
    v = static_cast<Time>(std::stoll(token, &pos));
    if (pos != token.size()) throw std::invalid_argument("trailing chars");
  } catch (const std::exception&) {
    // Covers empty/garbage tokens, NaN/inf spellings, and int64 overflow
    // (std::out_of_range) — everything funnels into one diagnosable error
    // instead of an abort or a wrapped value.
    throw ParseError(line_no, std::string("malformed ") + what + ": '" +
                                  token + "'");
  }
  // Cap fields well below the int64 range so downstream products (C·T,
  // k·T + D, ...) stay representable: 2^50 ticks is beyond any meaningful
  // workload but leaves 13 bits of multiplicative headroom.
  if (v > kMaxFieldValue) {
    throw ParseError(line_no, std::string(what) + " exceeds the maximum "
                                  "representable field value (2^50)");
  }
  return v;
}

}  // namespace

TaskSystem parse_task_system(std::istream& in) {
  TaskSystem system;
  std::string raw;
  int line_no = 0;

  bool in_task = false;
  std::string name;
  Time deadline = -1;
  Time period = -1;
  DagBuilder graph;
  int task_counter = 0;
  int task_start_line = 0;

  auto finish_task = [&]() {
    if (deadline < 1) {
      throw ParseError(task_start_line, "task '" + name +
                                            "' is missing a valid deadline");
    }
    if (period < 1) {
      throw ParseError(task_start_line,
                       "task '" + name + "' is missing a valid period");
    }
    if (graph.empty()) {
      throw ParseError(task_start_line,
                       "task '" + name + "' has no vertices");
    }
    // The builder has checked every vertex and edge already, so a cycle is
    // the one thing build() can reject.
    Dag dag;
    try {
      dag = graph.build();
    } catch (const ContractViolation&) {
      throw ParseError(task_start_line,
                       "task '" + name + "' has cyclic edges");
    }
    try {
      system.add(DagTask(std::move(dag), deadline, period, name));
    } catch (const ContractViolation& e) {
      // DagTask's own invariants (e.g. D ≤ T) become parse diagnostics, not
      // aborts: malformed input is the caller's problem, reported politely.
      throw ParseError(task_start_line,
                       "task '" + name + "': " + e.what());
    }
    deadline = period = -1;
    in_task = false;
  };

  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = clean_line(raw);
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string keyword;
    tokens >> keyword;

    if (keyword == "task") {
      if (in_task) throw ParseError(line_no, "nested 'task' (missing 'end'?)");
      in_task = true;
      task_start_line = line_no;
      ++task_counter;
      name.clear();
      tokens >> name;
      if (name.empty()) name = "task" + std::to_string(task_counter);
      continue;
    }
    if (!in_task) {
      throw ParseError(line_no, "'" + keyword + "' outside a task block");
    }
    if (keyword == "deadline") {
      std::string v;
      tokens >> v;
      deadline = parse_time(v, line_no, "deadline");
      if (deadline < 1) throw ParseError(line_no, "deadline must be >= 1");
    } else if (keyword == "period") {
      std::string v;
      tokens >> v;
      period = parse_time(v, line_no, "period");
      if (period < 1) throw ParseError(line_no, "period must be >= 1");
    } else if (keyword == "vertex") {
      std::string v;
      tokens >> v;
      Time wcet = parse_time(v, line_no, "vertex WCET");
      if (wcet < 1) throw ParseError(line_no, "vertex WCET must be >= 1");
      graph.add_vertex(wcet);
    } else if (keyword == "edge") {
      std::string a, b;
      tokens >> a >> b;
      Time from = parse_time(a, line_no, "edge source");
      Time to = parse_time(b, line_no, "edge target");
      if (from < 0 || to < 0 ||
          from >= static_cast<Time>(graph.num_vertices()) ||
          to >= static_cast<Time>(graph.num_vertices())) {
        throw ParseError(line_no, "edge endpoint out of range");
      }
      if (from == to) throw ParseError(line_no, "self-loop edge");
      if (graph.has_edge(static_cast<VertexId>(from),
                         static_cast<VertexId>(to))) {
        throw ParseError(line_no, "duplicate edge");
      }
      graph.add_edge(static_cast<VertexId>(from), static_cast<VertexId>(to));
    } else if (keyword == "end") {
      finish_task();
    } else {
      throw ParseError(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (in_task) {
    throw ParseError(line_no, "unterminated task block (missing 'end')");
  }
  return system;
}

TaskSystem parse_task_system(const std::string& text) {
  std::istringstream in(text);
  return parse_task_system(in);
}

ParseResult try_parse_task_system(const std::string& text) {
  ParseResult result;
  try {
    result.system = parse_task_system(text);
    result.ok = true;
  } catch (const ParseError& e) {
    result.line = e.line();
    result.error = e.what();
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

void serialize_task_system(const TaskSystem& system, std::ostream& out) {
  out << "# fedcons task system: " << system.size() << " task(s), "
      << to_string(system.deadline_class()) << "-deadline\n";
  for (std::size_t i = 0; i < system.size(); ++i) {
    const DagTask& t = system[i];
    std::string name =
        t.name().empty() ? "task" + std::to_string(i + 1) : t.name();
    // Names are single tokens in the format; make arbitrary names safe.
    for (char& c : name) {
      if (c == ' ' || c == '\t' || c == '#') c = '-';
    }
    out << "task " << name << "\n";
    out << "  deadline " << t.deadline() << "\n";
    out << "  period " << t.period() << "\n";
    for (VertexId v = 0; v < t.graph().num_vertices(); ++v) {
      out << "  vertex " << t.graph().wcet(v) << "\n";
    }
    for (VertexId v = 0; v < t.graph().num_vertices(); ++v) {
      for (VertexId s : t.graph().successors(v)) {
        out << "  edge " << v << " " << s << "\n";
      }
    }
    out << "end\n";
  }
}

std::string serialize_task_system(const TaskSystem& system) {
  std::ostringstream out;
  serialize_task_system(system, out);
  return out.str();
}

}  // namespace fedcons
