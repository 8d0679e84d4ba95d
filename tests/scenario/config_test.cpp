#include "scenario/config.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "scenario/engine.hpp"

namespace nectar::scenario {
namespace {

TEST(ConfigTest, ParsesSectionsAndValues) {
  Config cfg = Config::parse_string(
      "[scenario]\n"
      "name = smoke\n"
      "seed = 42\n"
      "\n"
      "[topology]\n"
      "kind = star\n"
      "nodes = 8\n");
  ASSERT_EQ(cfg.sections().size(), 2u);
  const Section& s = cfg.sections()[0];
  EXPECT_EQ(s.name, "scenario");
  EXPECT_EQ(s.get("name", ""), "smoke");
  EXPECT_EQ(s.get_int("seed", 0), 42);
  EXPECT_EQ(cfg.sections()[1].name, "topology");
  EXPECT_EQ(cfg.sections()[1].get_int("nodes", 0), 8);
}

TEST(ConfigTest, RepeatedSectionsKeepFileOrder) {
  Config cfg = Config::parse_string(
      "[workload]\nname = a\n"
      "[fault]\nkind = link_drop\n"
      "[workload]\nname = b\n");
  const std::vector<Section>& s = cfg.sections();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].name, "workload");
  EXPECT_EQ(s[0].get("name", ""), "a");
  EXPECT_EQ(s[1].name, "fault");
  EXPECT_EQ(s[2].name, "workload");
  EXPECT_EQ(s[2].get("name", ""), "b");
}

TEST(ConfigTest, CommentsAndWhitespaceIgnored) {
  Config cfg = Config::parse_string(
      "# leading comment\n"
      "  [a]  \n"
      "; alt comment style\n"
      "  key =   spaced value  \n");
  ASSERT_EQ(cfg.sections().size(), 1u);
  EXPECT_EQ(cfg.sections()[0].name, "a");
  EXPECT_EQ(cfg.sections()[0].get("key", ""), "spaced value");
}

TEST(ConfigTest, DurationSuffixes) {
  EXPECT_EQ(parse_time("250"), 250);
  EXPECT_EQ(parse_time("250ns"), 250);
  EXPECT_EQ(parse_time("250us"), sim::usec(250));
  EXPECT_EQ(parse_time("5ms"), sim::msec(5));
  EXPECT_EQ(parse_time("2s"), sim::sec(2));
  EXPECT_EQ(parse_time("1.5ms"), sim::usec(1500));
  EXPECT_THROW(parse_time("5 fortnights"), std::runtime_error);
  EXPECT_THROW(parse_time("fast"), std::runtime_error);
}

TEST(ConfigTest, TypedGettersValidate) {
  Config cfg = Config::parse_string("[s]\nn = 12\nf = 0.5\nb = yes\nt = 3ms\nbad = zzz\n");
  const Section* s = &cfg.sections().at(0);
  EXPECT_EQ(s->get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(s->get_double("f", 0), 0.5);
  EXPECT_TRUE(s->get_bool("b", false));
  EXPECT_EQ(s->get_time("t", 0), sim::msec(3));
  EXPECT_EQ(s->get_int("absent", 7), 7);
  EXPECT_THROW(s->get_int("bad", 0), std::runtime_error);
  EXPECT_THROW(s->get_bool("bad", false), std::runtime_error);
  EXPECT_THROW(s->get_time("bad", 0), std::runtime_error);
}

TEST(ConfigTest, MalformedInputThrowsWithLineNumber) {
  try {
    Config::parse_string("[ok]\nkey = 1\nnot-a-kv-line\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  EXPECT_THROW(Config::parse_string("[unclosed\n"), std::runtime_error);
  EXPECT_THROW(Config::parse_string("[s]\na = 1\na = 2\n"), std::runtime_error);
  EXPECT_THROW(Config::parse_string("[s]\n= nokey\n"), std::runtime_error);
}

// A misspelled key in ANY section must fail loudly at parse time: every
// section added since the scenario engine landed carries the same
// closed-vocabulary contract. One case per section, each with a plausible typo.
TEST(ConfigTest, EverySectionRejectsUnknownKeys) {
  auto rejects = [](const std::string& ini) {
    try {
      ScenarioSpec::from_config(Config::parse_string(ini));
      return false;
    } catch (const std::runtime_error& e) {
      return std::string(e.what()).find("unknown key") != std::string::npos;
    }
  };
  EXPECT_TRUE(rejects("[scenario]\nsede = 1\n"));
  EXPECT_TRUE(rejects("[topology]\nnode = 4\n"));
  EXPECT_TRUE(rejects("[workload]\nproto = rmp\nrat = 100\n"));
  EXPECT_TRUE(rejects("[fault]\nkind = link_drop\ntargt = node0.link\n"));
  EXPECT_TRUE(rejects("[capture]\nelement = node0.link\nfile = x.pcap\nfromat = raw_ip\n"));
  EXPECT_TRUE(rejects("[profile]\nfoldd = out.folded\n"));
  // Sections added after PR 3, same contract:
  EXPECT_TRUE(rejects("[parallel]\nshard = 4\n"));
  EXPECT_TRUE(rejects("[routing]\npath = 2\n"));
  EXPECT_TRUE(rejects("[collectives]\nopp = barrier\n"));
  EXPECT_TRUE(rejects("[telemetry]\nintervall = 1ms\n"));
  EXPECT_TRUE(rejects("[tracing]\nsampel = 0.5\n"));
  EXPECT_TRUE(rejects("[sessions]\nchanels = 100\n"));
}

// Disabled sections still validate their values — a typo'd *value* must not
// hide behind enabled=false.
TEST(ConfigTest, DisabledSectionsStillValidateValues) {
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[collectives]\nop = gather\n")),
      std::invalid_argument);
  EXPECT_THROW(
      ScenarioSpec::from_config(Config::parse_string("[sessions]\ntrunk_proto = udp\n")),
      std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[sessions]\nclasses = 9\n")),
               std::runtime_error);
  EXPECT_THROW(ScenarioSpec::from_config(Config::parse_string("[sessions]\nsize = 4\n")),
               std::runtime_error);
}

// The layout of the file fails loudly too, and so does a value that does not
// fit its field: each error names the section and the key it is about.
TEST(ConfigTest, RejectsMisplacedSectionsAndOutOfRangeValues) {
  struct Case {
    const char* ini;
    std::vector<const char*> named;  // what the message must mention
  };
  const Case cases[] = {
      {"[sesions]\nenabled = true\n", {"[sesions]"}},
      {"[scenario]\nseed = 1\n[topology]\nnodes = 2\n[scenario]\nseed = 5\n", {"[scenario]"}},
      {"seed = 5\n[scenario]\nname = x\n", {"'seed'", "[section]"}},
      {"[workload]\nsize = -1\n", {"[workload]", "size"}},
      {"[workload]\nport = 70000\n", {"[workload]", "port"}},
      {"[topology]\nhub_ports = 4294967312\n", {"[topology]", "hub_ports"}},
      {"[fault]\nkind = link_drop\ncount = -1\n", {"[fault]", "count"}},
  };
  for (const Case& c : cases) {
    try {
      ScenarioSpec::from_config(Config::parse_string(c.ini));
      ADD_FAILURE() << "accepted:\n" << c.ini;
    } catch (const std::runtime_error& e) {
      for (const char* want : c.named) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << "'" << e.what() << "' does not name " << want;
      }
    }
  }
}

// Every config shipped with the repository parses under the current
// vocabulary: a renamed or removed key cannot strand an example or a
// benchmark workload.
TEST(ConfigTest, ShippedConfigsParse) {
  const std::filesystem::path root = std::filesystem::path(NECTAR_TEST_SRCDIR) / "..";
  int parsed = 0;
  for (const char* dir : {"examples/scenarios", "perfbench/workloads"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / dir)) {
      if (entry.path().extension() != ".ini") continue;
      EXPECT_NO_THROW(ScenarioSpec::from_config(Config::parse_file(entry.path().string())))
          << entry.path();
      ++parsed;
    }
  }
  EXPECT_GE(parsed, 8);
}

}  // namespace
}  // namespace nectar::scenario
