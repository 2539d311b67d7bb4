// Tests for task-system text serialization.
#include "fedcons/core/io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fedcons/core/builders.h"
#include "fedcons/gen/presets.h"
#include "fedcons/gen/taskset_gen.h"
#include "fedcons/util/rng.h"

namespace fedcons {
namespace {

constexpr const char* kSample = R"(
# two-task sample
task alpha
  deadline 16
  period 20
  vertex 1
  vertex 2
  vertex 3   # heavy job
  edge 0 1
  edge 0 2
end

task beta
  period 8
  deadline 4
  vertex 2
end
)";

TEST(IoParseTest, ParsesSample) {
  TaskSystem sys = parse_task_system(std::string(kSample));
  ASSERT_EQ(sys.size(), 2u);
  EXPECT_EQ(sys[0].name(), "alpha");
  EXPECT_EQ(sys[0].deadline(), 16);
  EXPECT_EQ(sys[0].period(), 20);
  EXPECT_EQ(sys[0].vol(), 6);
  EXPECT_EQ(sys[0].len(), 4);  // 1 → 3
  EXPECT_EQ(sys[0].graph().num_edges(), 2u);
  EXPECT_EQ(sys[1].name(), "beta");
  EXPECT_EQ(sys[1].deadline(), 4);
}

TEST(IoParseTest, AnonymousTasksGetNames) {
  TaskSystem sys = parse_task_system(
      "task\n deadline 5\n period 5\n vertex 1\nend\n");
  ASSERT_EQ(sys.size(), 1u);
  EXPECT_EQ(sys[0].name(), "task1");
}

TEST(IoParseTest, EmptyInputIsEmptySystem) {
  EXPECT_TRUE(parse_task_system(std::string("\n# nothing\n")).empty());
}

TEST(IoParseTest, ErrorsCarryLineNumbers) {
  try {
    (void)parse_task_system(std::string("task a\n deadline 5\n bogus 1\n"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(IoParseTest, RejectsStructuralErrors) {
  EXPECT_THROW(parse_task_system(std::string("deadline 5\n")), ParseError);
  EXPECT_THROW(parse_task_system(std::string("task a\ntask b\n")),
               ParseError);
  EXPECT_THROW(parse_task_system(
                   std::string("task a\n deadline 5\n period 5\n vertex 1\n")),
               ParseError);  // missing end
  EXPECT_THROW(
      parse_task_system(std::string("task a\n period 5\n vertex 1\nend\n")),
      ParseError);  // missing deadline
  EXPECT_THROW(
      parse_task_system(std::string("task a\n deadline 5\n period 5\nend\n")),
      ParseError);  // no vertices
}

/// The line and message of the ParseError `text` raises ("accepted" if none).
std::pair<int, std::string> error_of(const std::string& text) {
  try {
    (void)parse_task_system(text);
  } catch (const ParseError& e) {
    return {e.line(), e.what()};
  }
  return {0, "accepted"};
}

TEST(IoParseTest, RejectsBadNumbersAndEdges) {
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline x\n period 5\n vertex 1\nend\n")),
               ParseError);
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline 5\n period 5\n vertex 0\nend\n")),
               ParseError);
  // Each malformed edge is reported on its own line with a fixed message.
  const std::string head =
      "# header\ntask a\n deadline 5\n period 5\n vertex 1\n vertex 1\n";
  const std::string out_of_range = ": edge endpoint out of range";
  EXPECT_EQ(error_of(head + " edge 0 1\n edge 1 2\nend\n"),
            std::make_pair(8, "line 8" + out_of_range));
  EXPECT_EQ(error_of(head + " edge -1 0\nend\n"),
            std::make_pair(7, "line 7" + out_of_range));
  EXPECT_EQ(error_of(head + " edge 1 1\nend\n"),
            std::make_pair(7, std::string("line 7: self-loop edge")));
  EXPECT_EQ(error_of(head + " edge 0 1\n edge 0 1\nend\n"),
            std::make_pair(8, std::string("line 8: duplicate edge")));
}

TEST(IoParseTest, RejectsCycles) {
  // Found when the task's graph is built: reported on the task's line.
  EXPECT_EQ(error_of("task a\n deadline 5\n period 5\n vertex 1\n"
                     " vertex 1\n edge 0 1\n edge 1 0\nend\n"),
            std::make_pair(1, std::string("line 1: task 'a' has cyclic "
                                          "edges")));
}

TEST(IoSerializeTest, MixedPresetRoundTripIsByteIdentical) {
  // What `fedcons_gen --preset=mixed --seed=1` prints: parsing it back and
  // serializing again reproduces it byte for byte, because each vertex's
  // successor list keeps its insertion order through DagBuilder::build.
  Rng rng(1);
  const TaskSystem generated =
      generate_task_system(rng, find_preset("mixed")->params);
  const std::string text = serialize_task_system(generated);
  const TaskSystem parsed = parse_task_system(text);
  EXPECT_EQ(serialize_task_system(parsed), text);
  ASSERT_EQ(parsed.size(), generated.size());
  for (TaskId i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].graph().num_edges(), generated[i].graph().num_edges());
    EXPECT_EQ(parsed[i].vol(), generated[i].vol());
    EXPECT_EQ(parsed[i].len(), generated[i].len());
  }
}

TEST(IoSerializeTest, RoundTripsPaperExample) {
  TaskSystem sys;
  sys.add(make_paper_example_task());
  TaskSystem back = parse_task_system(serialize_task_system(sys));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].name(), "fig1-example");
  EXPECT_EQ(back[0].vol(), 9);
  EXPECT_EQ(back[0].len(), 6);
  EXPECT_EQ(back[0].deadline(), 16);
  EXPECT_EQ(back[0].period(), 20);
  EXPECT_EQ(back[0].graph().num_edges(), 5u);
}

TEST(IoSerializeTest, SanitizesAwkwardNames) {
  DagBuilder g;
  g.add_vertex(1);
  TaskSystem sys;
  sys.add(DagTask(g.build(), 5, 5, "my task # weird"));
  TaskSystem back = parse_task_system(serialize_task_system(sys));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].name(), "my-task---weird");
}

// Round-trip property over random systems: every structural and temporal
// attribute survives serialize → parse.
class IoRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTripTest, RandomSystemsRoundTrip) {
  Rng rng(GetParam());
  TaskSetParams params;
  params.num_tasks = 6;
  params.topology = DagTopology::kMixed;
  for (int trial = 0; trial < 25; ++trial) {
    TaskSystem sys = generate_task_system(rng, params);
    TaskSystem back = parse_task_system(serialize_task_system(sys));
    ASSERT_EQ(back.size(), sys.size());
    for (std::size_t i = 0; i < sys.size(); ++i) {
      EXPECT_EQ(back[i].deadline(), sys[i].deadline());
      EXPECT_EQ(back[i].period(), sys[i].period());
      EXPECT_EQ(back[i].vol(), sys[i].vol());
      EXPECT_EQ(back[i].len(), sys[i].len());
      EXPECT_EQ(back[i].graph().num_vertices(),
                sys[i].graph().num_vertices());
      EXPECT_EQ(back[i].graph().num_edges(), sys[i].graph().num_edges());
      for (VertexId v = 0; v < sys[i].graph().num_vertices(); ++v) {
        EXPECT_EQ(back[i].graph().wcet(v), sys[i].graph().wcet(v));
        for (VertexId s : sys[i].graph().successors(v)) {
          EXPECT_TRUE(back[i].graph().has_edge(v, s));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripTest,
                         ::testing::Values(91u, 92u, 93u));

// Robustness: random garbage must produce ParseError (or a valid system),
// never a crash or an uncaught foreign exception.
class IoFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzzTest, GarbageNeverCrashes) {
  Rng rng(GetParam());
  const char* tokens[] = {"task",   "deadline", "period", "vertex",
                          "edge",   "end",      "0",      "1",
                          "-5",     "99999999", "abc",    "#",
                          "\n",     " ",        "t1",     "edge 0",
                          "3.14",   "--",       "task task"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string input;
    int pieces = static_cast<int>(rng.uniform_int(1, 40));
    for (int i = 0; i < pieces; ++i) {
      input += tokens[rng.uniform_int(0, std::size(tokens) - 1)];
      input += rng.bernoulli(0.4) ? "\n" : " ";
    }
    try {
      TaskSystem sys = parse_task_system(input);
      // Accepted inputs must be structurally valid systems.
      for (const auto& t : sys) {
        EXPECT_GE(t.vol(), 1);
        EXPECT_EQ(t.graph().topological_order().size(),
                  t.graph().num_vertices());
      }
    } catch (const ParseError&) {
      // expected for malformed input
    }
  }
}

TEST_P(IoFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam() ^ 0x5e5e);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    int len = static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < len; ++i) {
      input += static_cast<char>(rng.uniform_int(9, 126));
    }
    try {
      (void)parse_task_system(input);
    } catch (const ParseError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest, ::testing::Values(7u, 8u));

TEST(IoHardeningTest, RejectsFieldsBeyondTheRepresentableCap) {
  // Within int64 but above the 2^50 field cap: diagnosed, not accepted.
  try {
    (void)parse_task_system(std::string(
        "task a\n deadline 1234567890123456789\n period 5\n vertex 1\nend\n"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("2^50"), std::string::npos);
  }
  // Beyond int64 entirely: stoll overflow funnels into "malformed".
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline 99999999999999999999999\n period 5\n "
                   "vertex 1\nend\n")),
               ParseError);
  // The cap itself is still accepted (boundary inclusive).
  TaskSystem ok = parse_task_system(std::string(
      "task a\n deadline 1125899906842624\n period 1125899906842624\n "
      "vertex 1\nend\n"));
  EXPECT_EQ(ok[0].deadline(), Time{1} << 50);
}

TEST(IoHardeningTest, RejectsNonIntegerNumericSpellings) {
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline nan\n period 5\n vertex 1\nend\n")),
               ParseError);
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline inf\n period 5\n vertex 1\nend\n")),
               ParseError);
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline 5\n period 5\n vertex 2.5\nend\n")),
               ParseError);
  EXPECT_THROW(parse_task_system(std::string(
                   "task a\n deadline -7\n period 5\n vertex 1\nend\n")),
               ParseError);
}

TEST(IoHardeningTest, TryParseReportsInsteadOfThrowing) {
  const ParseResult good =
      try_parse_task_system("task a\n deadline 5\n period 5\n vertex 1\nend\n");
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.system.size(), 1u);
  EXPECT_TRUE(good.error.empty());

  const ParseResult bad =
      try_parse_task_system("task a\n deadline 5\n bogus 1\n");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.line, 3);
  EXPECT_NE(bad.error.find("bogus"), std::string::npos);
  EXPECT_TRUE(bad.system.empty());
}

}  // namespace
}  // namespace fedcons
