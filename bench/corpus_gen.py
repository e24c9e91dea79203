"""Seeded synthetic news corpora with planted citations.

Each article is assembled sentence by sentence, and every citation, direct
quote and topic keyword in it is placed here on purpose, so the expected
output of every command follows from the plan alone.

The text obeys the segmenter's documented rules, so sentence indices are
unambiguous:

- a sentence starts with an uppercase letter or an opening quote mark and
  ends with '.' followed by a space, a paragraph break or the end of the body;
- no other '.', '!' or '?' is followed by whitespace (the dots of a URL are
  not);
- no sentence ends with an abbreviation or a single-letter initial;
- quote marks come in balanced pairs within one sentence, and apostrophes
  always sit between two letters;
- embedded-tweet residue forms a paragraph of its own.

Filler never names a platform, and every phrase of the bundled pattern set
does, so filler holds no citation phrase. It also holds no embed marker
('(@', 'twitter.com'), no quote mark and no topic keyword. Mainstream filler
does use the matcher's prescreen words ('added', 'according', 'statement',
'confirmed', ...) often, which costs the matcher work that finds nothing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FACEBOOK, TWITTER = "facebook", "twitter"
QUOTATION, PARAPHRASE, EMBEDDING = "quotation", "paraphrase", "embedding"
MAINSTREAM, UNRELIABLE = "mainstream", "unreliable"
YEARS = (2013, 2014, 2015, 2016, 2017)

# A subset of the keyword labeler's words per topic. An article plants two or
# three distinct words of one topic and none of any other.
TOPIC_WORDS = {
    "Arts & Entertainment": ("album", "concert", "film", "movie", "premiere"),
    "Health": ("diet", "hospital", "patient", "vaccine", "virus"),
    "Law & Government": ("court", "judge", "lawsuit", "ruling", "verdict"),
    "People & Society": ("charity", "church", "tradition", "volunteer", "wedding"),
    "Politics": ("ballot", "election", "governor", "senate", "senator"),
    "Sensitive Subjects": ("assault", "racism", "shooting", "terror", "violence"),
    "Sports": ("coach", "league", "playoff", "quarterback", "tournament"),
}
TOPICS = tuple(sorted(TOPIC_WORDS))

SUBJECTS = (
    "The city council", "Local officials", "The company", "A spokesperson for the agency",
    "Residents of the district", "The regional board", "Investigators", "Several analysts",
    "The transport department", "Neighbors", "The organizers", "A group of engineers",
    "The school district", "Market observers", "The water utility", "Two local businesses",
    "The planning office", "A regional bank", "The housing authority", "Parents at the school",
    "The county clerk", "Union representatives", "The museum director", "Farmers in the valley",
    "The port authority", "A panel of experts", "Shop owners downtown", "The fire department",
    "Commuters", "The library staff", "The state auditor", "A trade group",
)
SPEAKERS = (
    "The owner", "A local organizer", "Her sister", "The restaurant manager", "A former employee",
    "The mayor", "A neighbor", "His brother", "The shop owner", "A parent", "A witness",
    "The landlord", "A city worker", "The founder", "A student", "The driver", "A teacher",
    "The bakery owner", "A nurse", "The principal", "A retired engineer", "The gallery owner",
)
PLAIN_VERBS = (
    "said", "reported", "described", "reviewed", "discussed", "outlined", "expected",
    "estimated", "proposed", "approved", "delayed", "planned", "questioned", "welcomed",
    "criticized", "defended",
)
# words the matcher's prescreen looks for
NEEDLE_VERBS = (
    "confirmed", "announced", "explained", "added", "revealed", "stated", "suggested",
    "insisted", "commented", "declared", "responded", "continued",
)
OBJECTS = (
    "the new budget", "a revised schedule", "the bridge repairs", "plans for a new park",
    "the water main project", "the parking changes", "a proposal to widen the road",
    "the annual report", "the latest traffic figures", "a review of the contract",
    "the cost of the upgrade", "the local bus network", "a draft of the plan",
    "the delayed construction work", "the recycling program", "the zoning changes",
    "a new housing project", "the storm cleanup", "rising rent prices", "the energy upgrade",
    "the harbor dredging", "a new bike lane", "the tax assessment", "the flood barrier",
    "the school lunch menu", "the downtown market", "the airport expansion", "the new library wing",
)
OUTCOMES = (
    "begin next month", "cost more than expected", "take several years",
    "be reviewed again in the spring", "need further study", "go ahead as planned",
    "be paid for by a new fee", "reach the district by the summer", "create about {n} jobs",
    "affect roughly {n} households", "open to the public in {month}", "run about {n} weeks late",
    "save the city close to {n} thousand dollars", "be finished before {month}",
)
TAILS = (
    "after a long meeting", "on {day}", "earlier this week", "despite some objections",
    "according to the minutes", "in a short statement", "for the {nth} time", "by {n} percent",
    "at a hearing on {day}", "late on {day}", "before the holiday", "in the {month} update",
    "at the request of {n} residents", "with little notice", "as expected", "without a formal notice",
)
ACCORDING_SOURCES = (
    "the latest figures", "a report from the agency", "two people familiar with the plan",
    "the minutes of the meeting", "data from the county", "a notice at city hall",
    "an internal memo", "the project schedule",
)
QUOTE_LEADS = (
    "we are proud of", "nobody expected", "we will keep working on", "people deserve better than",
    "there is no reason to delay", "this is only the start of", "we need answers about",
    "it is time to finish", "we are still waiting for", "everyone should look closely at",
    "we never wanted", "there is real hope for",
)
QUOTE_ENDS = (
    "and we will say more soon", "no matter what happens next", "after all these months",
    "and that is the whole story", "before the end of {month}", "for the next {n} years",
    "and we mean it", "whatever the critics say",
)
TOPIC_FORMS = (
    "Talk of the {kw} came up again {tail}.",
    "The {kw} remained a point of discussion {tail}.",
    "Several people mentioned the {kw} {tail}.",
    "Questions about the {kw} were raised {tail}.",
)
CASUAL_FORMS = (
    "It's not clear whether {obj} will {out}.",
    "People don't trust {obj} anymore, {s} {v}.",
    "Nobody knows why {obj} keeps getting worse {tail}.",
    "It’s hard to say what {obj} will mean for anyone {tail}.",
    "They won’t admit that {obj} could {out}.",
    "Readers can't find {obj} in the official record {tail}.",
)
FIRST_NAMES = ("Jane", "Mark", "Alicia", "Tom", "Priya", "Luis", "Grace", "Omar", "Nina", "Paul")
LAST_NAMES = ("Doe", "Rivera", "Chen", "Walsh", "Okafor", "Novak", "Berg", "Silva", "Kaur", "Moss")
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July", "August", "September",
    "October", "November", "December",
)
DAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
NTH = ("second", "third", "fourth", "fifth", "sixth")
TWEET_OPENS = (
    "So proud of", "Cannot believe", "Huge thanks to everyone behind", "Still thinking about",
    "What a day for", "Grateful for", "Big news about", "Watching",
)
TWEET_ENDS = ("today!", "right now!", "this morning!", "tonight!", "again!")

# every quote-mark style of the quote-mark table, as (open, close)
QUOTE_STYLES = (
    ("“", "”"), ("‘", "’"), ("«", "»"), ('"', '"'), ("``", "''"), ("`", "'"), ("'", "'"),
)
MAINSTREAM_STYLES = (("“", "”"), ('"', '"'))

FB_PARAPHRASE_LEADS = (
    "posted on Facebook that", "wrote on Facebook that", "said on Facebook that",
    "announced on Facebook that", "explained in a Facebook post that",
    "said in a Facebook post that", "wrote on her Facebook page that", "shared on Facebook that",
    "confirmed on Facebook that", "told his Facebook followers that",
)
FB_FRONTS = ("In a Facebook post, ", "On her Facebook page, ", "In a statement on Facebook, ")
FB_QUOTE_LEADS = (
    "wrote on Facebook", "posted on Facebook", "said in a Facebook post", "shared on Facebook",
    "said on Facebook",
)
TW_PARAPHRASE_LEADS = (
    "tweeted that", "said on Twitter that", "wrote on Twitter that", "posted on Twitter that",
    "announced on Twitter that", "said in a tweet that", "wrote in a tweet that",
    "told her Twitter followers that", "confirmed on Twitter that",
)
TW_FRONTS = ("In a tweet, ", "In a series of tweets, ", "On his Twitter account, ")
TW_QUOTE_LEADS = ("tweeted", "wrote on Twitter", "said in a tweet", "posted on Twitter")
LEADS = {
    FACEBOOK: (FB_PARAPHRASE_LEADS, FB_FRONTS, FB_QUOTE_LEADS),
    TWITTER: (TW_PARAPHRASE_LEADS, TW_FRONTS, TW_QUOTE_LEADS),
}
OUTLETS = {
    MAINSTREAM: ("Daily Ledger", "Metro Herald", "The Courier", "Evening Standard Post"),
    UNRELIABLE: ("Truth Wire", "Patriot Buzz", "Real News Now", "Viral Daily"),
}


def _lower_first(text: str) -> str:
    return text[0].lower() + text[1:]


@dataclass
class PlannedArticle:
    record: dict  # the corpus line
    media: str
    year: int
    topic: str  # the topic whose keywords the body plants
    sentences: int
    direct_quotes: int
    citations: list  # of (sentence_index, platform, kind)
    needle_sentences: int  # sentences holding a prescreen word
    needle_citations: int  # ... that also hold a planted citation phrase


@dataclass
class PlannedCorpus:
    articles: list = field(default_factory=list)  # of PlannedArticle

    def citation_keys(self) -> set:
        return {
            (a.record["id"], index, platform, kind)
            for a in self.articles
            for index, platform, kind in a.citations
        }

    def write(self, corpus_path, gold_path=None, planted_path=None) -> None:
        with open(corpus_path, "w", encoding="utf-8") as fh:
            for article in self.articles:
                fh.write(json.dumps(article.record, ensure_ascii=False) + "\n")
        if gold_path is not None:
            with open(gold_path, "w", encoding="utf-8") as fh:
                for article_id, index, platform, kind in sorted(self.citation_keys()):
                    fh.write(json.dumps({
                        "article_id": article_id, "sentence_index": index,
                        "platform": platform, "kind": kind,
                    }) + "\n")
        if planted_path is not None:
            with open(planted_path, "w", encoding="utf-8") as fh:
                json.dump(self.planted(), fh, indent=1, sort_keys=True)

    def planted(self) -> dict:
        """The expected outcome, as placed by the generator."""
        by_media_year: dict = {}
        for a in self.articles:
            key = f"{a.media}/{a.year}"
            by_media_year[key] = by_media_year.get(key, 0) + 1
        return {
            "citations": sorted(self.citation_keys()),
            "direct_quotes": sum(a.direct_quotes for a in self.articles),
            "sentences": sum(a.sentences for a in self.articles),
            "articles_by_media_year": by_media_year,
            "topics": {a.record["id"]: a.topic for a in self.articles},
        }

    def profile(self) -> dict:
        """Make-up of the corpus: size, repeated bodies, prescreen-word share."""
        bodies = [a.record["body"] for a in self.articles]
        sentences = sum(a.sentences for a in self.articles)
        return {
            "articles": len(bodies),
            "bytes": sum(len(json.dumps(a.record, ensure_ascii=False).encode()) + 1 for a in self.articles),
            "mean_body_bytes": round(sum(len(b.encode()) for b in bodies) / len(bodies), 1),
            "repeated_body_share": 1 - len(set(bodies)) / len(bodies),
            "sentences": sentences,
            "needle_sentence_share": round(sum(a.needle_sentences for a in self.articles) / sentences, 4),
            "needle_without_citation_share": round(
                sum(a.needle_sentences - a.needle_citations for a in self.articles) / sentences, 4),
            "articles_with_citation_share": round(sum(1 for a in self.articles if a.citations) / len(bodies), 4),
            "citations": sum(len(a.citations) for a in self.articles),
            "direct_quotes": sum(a.direct_quotes for a in self.articles),
        }


class _Writer:
    """Sentence templates filled from one seeded random stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def fill(self, template: str) -> str:
        r = self.rng
        return template.format(
            n=r.randint(2, 950), month=r.choice(MONTHS), day=r.choice(DAYS), nth=r.choice(NTH),
        )

    def clause(self) -> str:
        return f"{self.rng.choice(OBJECTS)} would {self.fill(self.rng.choice(OUTCOMES))}"

    def tail(self) -> str:
        return self.fill(self.rng.choice(TAILS))

    def filler(self, needle_rate: float) -> str:
        """One plain newswire sentence; needle_rate of them hold a prescreen word."""
        r = self.rng
        subject = r.choice(SUBJECTS)
        if r.random() < needle_rate:
            form = r.randrange(4)
            if form == 0:
                return f"According to {r.choice(ACCORDING_SOURCES)}, {self.clause()}."
            if form == 1:
                return (f"In a statement on {r.choice(DAYS)}, {_lower_first(subject)} "
                        f"{r.choice(PLAIN_VERBS)} {r.choice(OBJECTS)}.")
            if form == 2:
                return f"{subject} {r.choice(NEEDLE_VERBS)} that {self.clause()}."
            return (f"{subject} {r.choice(PLAIN_VERBS)} {r.choice(OBJECTS)} {self.tail()}, "
                    f"{_lower_first(r.choice(SPEAKERS))} {r.choice(('added', 'confirmed'))}.")
        if r.random() < 0.5:
            return f"{subject} {r.choice(PLAIN_VERBS)} {r.choice(OBJECTS)} on {r.choice(DAYS)}."
        return f"{subject} said that {self.clause()}."

    def casual(self) -> str:
        """A short informal sentence with letter-flanked apostrophes."""
        r = self.rng
        return r.choice(CASUAL_FORMS).format(
            obj=r.choice(OBJECTS), out=r.choice(("fail", "change", "stall", "collapse")),
            s=_lower_first(r.choice(SUBJECTS)), v=r.choice(PLAIN_VERBS[:4]),
            tail=r.choice(("this year", "at all", "so far", "in the end")),
        )

    def quote(self, styles) -> tuple:
        opening, closing = self.rng.choice(styles)
        words = f"{self.rng.choice(QUOTE_LEADS)} {self.rng.choice(OBJECTS)} {self.fill(self.rng.choice(QUOTE_ENDS))}"
        return opening, words, closing

    def quoted_statement(self, styles) -> str:
        """A direct quote with no citation phrase."""
        o, words, c = self.quote(styles)
        if self.rng.random() < 0.5:
            return f"{o}{words[0].upper()}{words[1:]},{c} {_lower_first(self.rng.choice(SPEAKERS))} said."
        return f"{self.rng.choice(SUBJECTS)} said {o}{words}{c} {self.tail()}."

    def citation(self, platform: str, kind: str, styles) -> str:
        r = self.rng
        paraphrase_leads, fronts, quote_leads = LEADS[platform]
        speaker = r.choice(SPEAKERS)
        if kind == PARAPHRASE:
            if r.random() < 0.7:
                return f"{speaker} {r.choice(paraphrase_leads)} {self.clause()}."
            return f"{r.choice(fronts)}{_lower_first(speaker)} said that {self.clause()}."
        o, words, c = self.quote(styles)
        if r.random() < 0.5:
            return f"{speaker} {r.choice(quote_leads)} {o}{words}{c} {self.tail()}."
        return f"{o}{words[0].upper()}{words[1:]},{c} {_lower_first(speaker)} {r.choice(quote_leads)}."

    def both_platforms(self, kind: str, styles) -> str:
        """One sentence citing Facebook and Twitter: one mention per platform."""
        speaker = self.rng.choice(SPEAKERS)
        if kind == PARAPHRASE:
            return f"{speaker} posted on Facebook and tweeted that {self.clause()}."
        o, words, c = self.quote(styles)
        return f"{speaker} posted on Facebook and tweeted {o}{words}{c} {self.tail()}."

    def embedding(self) -> tuple:
        """Embedded-tweet residue; the flag says if it needs its own paragraph."""
        r = self.rng
        first, last = r.choice(FIRST_NAMES), r.choice(LAST_NAMES)
        handle = f"{first.lower()}{last.lower()}{r.randint(1, 999)}"
        form = r.randrange(4)
        if form == 2:
            verb = r.choice(("shared the clip at", "tweeted the full text at", "linked the original at"))
            return (f"{r.choice(SPEAKERS)} {verb} https://twitter.com/{handle}/status/"
                    f"{r.randint(10**17, 10**18)}."), False
        stamp = f"— {first} {last} (@{handle}) {r.choice(MONTHS)} {r.randint(1, 28)}, {r.choice(YEARS)}"
        text = f"{r.choice(TWEET_OPENS)} {r.choice(OBJECTS)} {r.choice(TWEET_ENDS)}"
        if form == 0:
            return f"{text} pic.twitter.com/{self._code()} {stamp}", True
        if form == 1:
            return f"{text} {stamp}", True
        return f"{text} pic.twitter.com/{self._code()}", True

    def _code(self) -> str:
        alphabet = "abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ23456789"
        return "".join(self.rng.choice(alphabet) for _ in range(10))

    def topic_sentences(self, topic: str) -> list:
        words = self.rng.sample(TOPIC_WORDS[topic], self.rng.choice((2, 3)))
        return [self.rng.choice(TOPIC_FORMS).format(kw=w, tail=self.tail()) for w in words]

    def headline(self) -> str:
        r = self.rng
        return f"{r.choice(SUBJECTS)} {r.choice(PLAIN_VERBS)} {r.choice(OBJECTS)}"


def _assemble(rng: random.Random, items: list) -> tuple:
    """Shuffle items into paragraphs.

    Returns (body, sentence count, citations, quotes, needle sentences,
    needle sentences with a phrase citation).

    An item is (text, cites, quotes, own_paragraph, needle), where cites is a
    tuple of (platform, kind) and quotes the number of direct quotes in it.
    """
    rng.shuffle(items)
    paragraphs: list = [[]]
    citations: list = []
    quotes = needles = needle_cites = 0
    run = rng.randint(2, 4)
    for index, (text, cites, q, own, needle) in enumerate(items):
        if own or len(paragraphs[-1]) >= run:
            if paragraphs[-1]:
                paragraphs.append([])
            run = rng.randint(2, 4)
        paragraphs[-1].append(text)
        if own:
            paragraphs.append([])
        citations.extend((index, platform, kind) for platform, kind in cites)
        quotes += q
        needles += needle
        needle_cites += needle and any(kind != EMBEDDING for _, kind in cites)
    body = "\n\n".join(" ".join(p) for p in paragraphs if p)
    return body, len(items), citations, quotes, needles, needle_cites


def _article(w: _Writer, art_id: str, media: str, year: int, topic: str,
             cites: list, n_filler: int, n_quotes: int, needle_rate: float, needles: tuple) -> PlannedArticle:
    """One article: cites is a list of (platforms, kind) citation sentences."""
    rng = w.rng
    styles = MAINSTREAM_STYLES if media == MAINSTREAM else QUOTE_STYLES
    items = []

    def has_needle(text):
        lowered = text.lower()
        return any(n in lowered for n in needles)

    for _ in range(n_filler):
        text = w.filler(needle_rate) if media == MAINSTREAM or rng.random() < 0.5 else w.casual()
        items.append((text, (), 0, False, has_needle(text)))
    for text in w.topic_sentences(topic):
        items.append((text, (), 0, False, has_needle(text)))
    for _ in range(n_quotes):
        text = w.quoted_statement(styles)
        items.append((text, (), 1, False, has_needle(text)))
    for platforms, kind in cites:
        if kind == EMBEDDING:
            text, own = w.embedding()
            items.append((text, ((TWITTER, EMBEDDING),), 0, own, has_needle(text)))
            continue
        if len(platforms) == 2:
            text = w.both_platforms(kind, styles)
        else:
            text = w.citation(platforms[0], kind, styles)
        quoted = int(kind == QUOTATION)
        items.append((text, tuple((p, kind) for p in platforms), quoted, False, has_needle(text)))
    body, sentences, citations, quotes, needle_count, needle_cites = _assemble(rng, items)
    month, day = rng.randint(1, 12), rng.randint(1, 28)
    record = {
        "id": art_id,
        "outlet": rng.choice(OUTLETS[media]),
        "media_type": media,
        "published_at": f"{year}-{month:02d}-{day:02d}",
        "headline": w.headline(),
        "body": body,
    }
    return PlannedArticle(record, media, year, topic, sentences, quotes, citations,
                          needle_count, needle_cites)


# Citation plans. Mainstream articles that cite at all carry one or two
# citations. Unreliable articles are dense: two phrase citations each (every
# seventh has one sentence citing both platforms), embedded residue in four
# of five, and a second embedding in every third.
_MAINSTREAM_PLANS = (
    [((FACEBOOK,), PARAPHRASE)],
    [((TWITTER,), QUOTATION), ((TWITTER,), PARAPHRASE)],
    [((TWITTER,), EMBEDDING)],
    [((FACEBOOK,), QUOTATION), ((TWITTER,), PARAPHRASE)],
    [((TWITTER,), PARAPHRASE)],
)


def _unreliable_plan(i: int) -> list:
    first = (FACEBOOK,) if i % 2 == 0 else (TWITTER,)
    second = (TWITTER,) if i % 2 == 0 else (FACEBOOK,)
    if i % 7 == 3:
        second = (FACEBOOK, TWITTER)
    plan = [(first, QUOTATION), (second, PARAPHRASE)]
    if i % 5 != 4:
        plan.append(((TWITTER,), EMBEDDING))
    if i % 3 == 0:
        plan.append(((TWITTER,), EMBEDDING))
    return plan


def _mainstream(w, art_id, year, topic, plan, needles, i):
    return _article(w, art_id, MAINSTREAM, year, topic, plan, n_filler=14 + i % 3,
                    n_quotes=i % 4, needle_rate=0.45, needles=needles)


def _unreliable(w, art_id, year, topic, plan, needles, i):
    return _article(w, art_id, UNRELIABLE, year, topic, plan, n_filler=1 + i % 2,
                    n_quotes=int(i % 3 == 1), needle_rate=0.1, needles=needles)


def mainstream_corpus(seed: int, n: int, needles: tuple) -> PlannedCorpus:
    """Newswire bodies of about 1.5 KB; 9 % of articles carry citations."""
    rng = random.Random(seed)
    w = _Writer(rng)
    cited = set(rng.sample(range(n), round(n * 0.09)))
    corpus = PlannedCorpus()
    for i in range(n):
        plan = _MAINSTREAM_PLANS[i % len(_MAINSTREAM_PLANS)] if i in cited else []
        corpus.articles.append(_mainstream(w, f"m{i:06d}", YEARS[i % 5], TOPICS[i % 7], plan, needles, i))
    return corpus


def embedded_corpus(seed: int, n: int, needles: tuple) -> PlannedCorpus:
    """Short, citation-dense unreliable-style articles full of embedded-tweet residue."""
    w = _Writer(random.Random(seed))
    corpus = PlannedCorpus()
    for i in range(n):
        corpus.articles.append(_unreliable(w, f"u{i:06d}", YEARS[i % 5], TOPICS[i % 7], _unreliable_plan(i), needles, i))
    return corpus


# Share of articles that cite a source, by media type and year: it rises
# every year, as in the paper's trend table.
CITED_SHARE = {
    MAINSTREAM: (0.03, 0.05, 0.07, 0.09, 0.12),
    UNRELIABLE: (0.20, 0.30, 0.40, 0.50, 0.60),
}
# relative weight of each topic, per media type, in TOPICS order
TOPIC_WEIGHTS = {
    MAINSTREAM: (9, 6, 12, 4, 16, 3, 10),
    UNRELIABLE: (3, 8, 5, 10, 14, 12, 2),
}


def _counts(total: int, weights: tuple) -> list:
    """Split total into integer parts in proportion to weights (largest remainder)."""
    raw = [total * w / sum(weights) for w in weights]
    parts = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: (parts[i] - raw[i], i))
    for i in order[: total - sum(parts)]:
        parts[i] += 1
    return parts


def mixed_corpus(seed: int, n: int, needles: tuple) -> PlannedCorpus:
    """Both media types over 2013-2017, three mainstream to two unreliable,
    with no preset topics: the topic is left to the labeler."""
    rng = random.Random(seed)
    w = _Writer(rng)
    slots = [(MAINSTREAM if i % 5 < 3 else UNRELIABLE, YEARS[(i // 5) % 5]) for i in range(n)]
    cited: set = set()
    topic_of: dict = {}
    for media in (MAINSTREAM, UNRELIABLE):
        members = [i for i, (m, _) in enumerate(slots) if m == media]
        for y, year in enumerate(YEARS):
            cell = [i for i in members if slots[i][1] == year]
            cited.update(rng.sample(cell, round(len(cell) * CITED_SHARE[media][y])))
        labels = [t for t, k in zip(TOPICS, _counts(len(members), TOPIC_WEIGHTS[media])) for _ in range(k)]
        rng.shuffle(labels)
        topic_of.update(zip(members, labels))
    corpus = PlannedCorpus()
    for i, (media, year) in enumerate(slots):
        if media == MAINSTREAM:
            plan = _MAINSTREAM_PLANS[i % len(_MAINSTREAM_PLANS)] if i in cited else []
            article = _mainstream(w, f"x{i:06d}", year, topic_of[i], plan, needles, i)
        else:
            plan = _unreliable_plan(i) if i in cited else []
            article = _unreliable(w, f"x{i:06d}", year, topic_of[i], plan, needles, i)
        corpus.articles.append(article)
    return corpus


def prescreen_words(pattern_tsv) -> tuple:
    """The matcher's prescreen words: the longest word of each phrase in the file."""
    words = set()
    with open(pattern_tsv, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if line.startswith("#") or len(fields) < 2:
                continue
            words.add(max(fields[1].lower().split(), key=len))
    return tuple(sorted(words))
