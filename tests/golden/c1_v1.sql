CREATE TABLE nation (
    n_nationkey integer,
    n_name text,
    n_comment text
);
COPY nation (n_nationkey, n_name, n_comment) FROM stdin;
0	ALGERIA	furiously regular deposits
1	ARGENTINA	instructions wake quickly
2	BRAZIL	final packages sleep
\.
CREATE TABLE region (
    r_regionkey integer,
    r_name text
);
COPY region (r_regionkey, r_name) FROM stdin;
0	AFRICA
1	AMERICA
2	ASIA
\.
